package imrdmd

import (
	"strings"
	"testing"

	"imrdmd/internal/core"
)

// mustNew fails the test on invalid options; the shared constructor for
// every analyzer test in this package.
func mustNew(t testing.TB, opts Options) *Analyzer {
	t.Helper()
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOptionsValidation is the satellite table test: New must reject
// invalid knobs with a descriptive error naming the offending field, and
// accept every valid combination including the zero value.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring of the error; empty = must succeed
	}{
		{"zero value", Options{}, ""},
		{"typical streaming config", Options{DT: 20, MaxLevels: 6, UseSVHT: true, Workers: 4, BlockColumns: 8}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"very negative workers", Options{Workers: -100}, "Workers"},
		{"workers above bound", Options{Workers: core.MaxWorkers + 1}, "Workers"},
		{"negative block columns", Options{BlockColumns: -8}, "BlockColumns"},
		{"both invalid reports first", Options{Workers: -1, BlockColumns: -8}, "Workers"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(c.opts)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				if a == nil {
					t.Fatal("nil analyzer for valid options")
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid options accepted: %+v", c.opts)
			}
			if a != nil {
				t.Fatal("non-nil analyzer returned alongside error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the offending field %q", err, c.wantErr)
			}
		})
	}
}

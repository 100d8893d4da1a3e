package core

import (
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// TestOptionsValidate covers the core-level knob validation shared by
// Decompose and Incremental.InitialFit.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"negative workers", Options{Workers: -1}, false},
		{"workers at bound", Options{Workers: MaxWorkers}, true},
		{"workers above bound", Options{Workers: MaxWorkers + 1}, false},
		{"negative block columns", Options{BlockColumns: -8}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
	// The entry points must surface the same errors.
	data := mat64(4, 32)
	if _, err := Decompose(data, Options{BlockColumns: -1}); err == nil {
		t.Fatal("Decompose accepted negative block columns")
	}
	inc := NewIncremental(Options{Workers: -2})
	if err := inc.InitialFit(data); err == nil {
		t.Fatal("InitialFit accepted negative workers")
	}
}

// mat64 builds a small deterministic matrix for the validation entry-point
// checks.
func mat64(p, t int) *mat.Dense {
	rng := rand.New(rand.NewSource(1))
	d, _ := multiscale(rng, p, t, 1, 0.05)
	return d
}

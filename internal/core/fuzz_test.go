package core

import (
	"bytes"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// FuzzDecodeIncremental feeds arbitrary bytes to the snapshot decoder —
// the restore endpoint takes them from the network. Decoding must never
// panic, and whatever decodes must survive a round trip: its snapshot
// decodes again and re-encodes to the same bytes.
//
// The committed corpus (testdata/fuzz/FuzzDecodeIncremental) holds the
// seeds below as this version wrote them, so streams of this layout stay
// covered when the encoder moves on.
func FuzzDecodeIncremental(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	data, _ := multiscale(rng, 2, 48, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 32)); err != nil {
		f.Fatal(err)
	}
	if _, err := inc.PartialFit(data.ColSlice(32, 48)); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := inc.Snapshot(&snap); err != nil {
		f.Fatal(err)
	}
	v2 := snap.Bytes()
	f.Add(v2)
	for _, n := range []int{0, 8, 16, len(v2) / 2, len(v2) - 1} {
		f.Add(v2[:n])
	}
	f.Add(v1Stream(f, inc))

	// Restored analyzers land on one small engine, whatever worker count
	// the bytes claim.
	eng := compute.NewEngine(1)
	f.Cleanup(eng.Close)
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, err := DecodeIncrementalWith(bytes.NewReader(b), eng)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := dec.Snapshot(&first); err != nil {
			t.Fatalf("decoded analyzer does not snapshot: %v", err)
		}
		again, err := DecodeIncrementalWith(bytes.NewReader(first.Bytes()), eng)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		var second bytes.Buffer
		if err := again.Snapshot(&second); err != nil {
			t.Fatalf("round-tripped analyzer does not snapshot: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable: %d bytes then %d", first.Len(), second.Len())
		}
	})
}

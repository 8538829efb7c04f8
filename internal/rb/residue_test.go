package rb

import (
	"math/rand"
	"testing"
)

// TestResidue3MatchesValue checks the residue against big-integer-free
// reference arithmetic: the digit sum's residue, accumulated digit by digit.
func TestResidue3MatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(n Number) {
		t.Helper()
		want := 0
		for i := 0; i < Width; i++ {
			w := 1
			if i%2 == 1 {
				w = 2
			}
			switch n.Digit(i) {
			case 1:
				want += w
			case -1:
				want += 3 - w // -1*2^i ≡ 3 - (2^i mod 3)
			}
			want %= 3
		}
		if got := n.Residue3(); int(got) != want {
			t.Fatalf("Residue3(%v) = %d, want %d", n, got, want)
		}
	}
	check(Number{})
	check(FromInt(1))
	check(FromInt(-1))
	check(FromUint(0x8000000000000000))
	for i := 0; i < 2000; i++ {
		p := rng.Uint64()
		m := rng.Uint64() &^ p
		n, err := FromBits(p, m)
		if err != nil {
			t.Fatal(err)
		}
		check(n)
	}
}

// TestResidue3FormInvariant: the value-preserving digit rewrites of
// RedundantForm preserve the exact integer digit sum, so every redundant
// form of a value carries the same residue — carried residues survive
// re-encoding anywhere in the datapath.
func TestResidue3FormInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := rng.Uint64()
		canonical := FromUint(v)
		form := RedundantForm(v, rng)
		if form.Residue3() != canonical.Residue3() {
			t.Fatalf("redundant form of %#x has residue %d, canonical %d",
				v, form.Residue3(), canonical.Residue3())
		}
	}
}

// TestSingleDigitFlipAlwaysChangesResidue is the engine behind the
// fault-campaign claim: every possible single-digit corruption of every
// digit vector is visible mod 3.
func TestSingleDigitFlipAlwaysChangesResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vectors := []Number{{}, FromInt(1), FromInt(-1), FromUint(0xAAAAAAAAAAAAAAAA)}
	for i := 0; i < 200; i++ {
		p := rng.Uint64()
		m := rng.Uint64() &^ p
		n, _ := FromBits(p, m)
		vectors = append(vectors, n)
	}
	for _, n := range vectors {
		carried := n.Residue3()
		p, m := n.Components()
		for d := 0; d < Width; d++ {
			bit := uint64(1) << uint(d)
			// The three single-digit corruptions: digit -> 0, digit -> +1,
			// digit -> -1 (whichever differ from the current digit).
			var corrupted []Number
			mk := func(np, nm uint64) {
				c, err := FromBits(np, nm)
				if err != nil {
					t.Fatal(err)
				}
				if c != n {
					corrupted = append(corrupted, c)
				}
			}
			mk(p&^bit, m&^bit) // digit -> 0
			mk(p|bit, m&^bit)  // digit -> +1
			mk(p&^bit, m|bit)  // digit -> -1
			for _, c := range corrupted {
				if c.CheckResidue(carried) {
					t.Fatalf("corruption of digit %d of %v passed the residue check", d, n)
				}
			}
		}
	}
}

func BenchmarkResidue3(b *testing.B) {
	n := FromUint(0x0123456789ABCDEF)
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink += n.Residue3()
	}
	_ = sink
}

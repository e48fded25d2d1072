package core

import (
	"context"
	"testing"

	"repro/internal/alignment"
	"repro/internal/mat"
	"repro/internal/seq"
	"repro/internal/wavefront"
)

// FuzzAlgorithmsAgree feeds arbitrary short residue strings to every exact
// algorithm and demands identical optimal scores and valid alignments.
// Inputs are truncated so the full-matrix reference stays cheap.
func FuzzAlgorithmsAgree(f *testing.F) {
	f.Add("ACGT", "ACG", "AGT")
	f.Add("", "", "")
	f.Add("AAAA", "TTTT", "CCCC")
	f.Add("ACGTACGTACGTACGT", "A", "")
	f.Add("NNN", "ACG", "NCN")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		const maxLen = 12
		tr, err := makeTriple(a, b, c, maxLen)
		if err != nil {
			return // invalid residues: not this fuzzer's concern
		}
		ref, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 1})
		if err != nil {
			t.Fatalf("AlignParallel: %v", err)
		}
		checkAlignment(t, ref, dnaSch)
		runs := map[string]func() (int32, error){
			"parallel": func() (int32, error) {
				aln, err := AlignParallel(context.Background(), tr, dnaSch, Options{Workers: 3, BlockSize: 4})
				if err != nil {
					return 0, err
				}
				return aln.Score, nil
			},
			"linear": func() (int32, error) {
				aln, err := AlignParallelLinear(context.Background(), tr, dnaSch, Options{Workers: 1})
				if err != nil {
					return 0, err
				}
				return aln.Score, nil
			},
			"diagonal": func() (int32, error) {
				aln, err := AlignDiagonal(context.Background(), tr, dnaSch, Options{Workers: 2})
				if err != nil {
					return 0, err
				}
				return aln.Score, nil
			},
			"bounded": func() (int32, error) {
				aln, _, err := AlignBounded(context.Background(), tr, dnaSch, Options{}, mat.NegInf)
				if err != nil {
					return 0, err
				}
				return aln.Score, nil
			},
			"score-only": func() (int32, error) {
				return Score(context.Background(), tr, dnaSch, Options{})
			},
		}
		for name, run := range runs {
			got, err := run()
			if err != nil {
				t.Fatalf("%s(%q,%q,%q): %v", name, a, b, c, err)
			}
			if got != ref.Score {
				t.Fatalf("%s(%q,%q,%q) = %d, full = %d", name, a, b, c, got, ref.Score)
			}
		}
	})
}

func makeTriple(a, b, c string, maxLen int) (seq.Triple, error) {
	clip := func(s string) string {
		if len(s) > maxLen {
			return s[:maxLen]
		}
		return s
	}
	sa, err := seq.New("A", []byte(clip(a)), seq.DNA)
	if err != nil {
		return seq.Triple{}, err
	}
	sb, err := seq.New("B", []byte(clip(b)), seq.DNA)
	if err != nil {
		return seq.Triple{}, err
	}
	sc, err := seq.New("C", []byte(clip(c)), seq.DNA)
	if err != nil {
		return seq.Triple{}, err
	}
	return seq.Triple{A: sa, B: sb, C: sc}, nil
}

// FuzzAffineFamilyAgrees drives arbitrary short inputs through the three
// affine implementations (full, linear-space, blocked-parallel), which
// must return identical quasi-natural optima.
func FuzzAffineFamilyAgrees(f *testing.F) {
	f.Add("ACGT", "ACG", "AGT")
	f.Add("", "", "")
	f.Add("AAAAAAAA", "AA", "AAAA")
	f.Add("ACGTACGT", "", "TTTT")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		const maxLen = 9
		tr, err := makeTriple(a, b, c, maxLen)
		if err != nil {
			return
		}
		sch, err := dnaSch.WithGaps(-5, -1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 1})
		if err != nil {
			t.Fatalf("AlignAffineParallel(%q,%q,%q): %v", a, b, c, err)
		}
		lin, err := AlignAffineLinear(context.Background(), tr, sch, Options{})
		if err != nil {
			t.Fatalf("AlignAffineLinear(%q,%q,%q): %v", a, b, c, err)
		}
		if lin.Score != ref.Score {
			t.Fatalf("linear %d != full %d for (%q,%q,%q)", lin.Score, ref.Score, a, b, c)
		}
		par, err := AlignAffineParallel(context.Background(), tr, sch, Options{Workers: 3, BlockSize: 3})
		if err != nil {
			t.Fatalf("AlignAffineParallel(%q,%q,%q): %v", a, b, c, err)
		}
		if par.Score != ref.Score {
			t.Fatalf("parallel %d != full %d for (%q,%q,%q)", par.Score, ref.Score, a, b, c)
		}
	})
}

// FuzzAffineFill pins the grouped-open lane pass to the guarded per-cell
// recurrence (refAffineFill) on arbitrary short inputs, gap costs,
// boundary seeds and block sizes: the sequential and the blocked fill
// must reproduce every cell of every state, starting from garbage.
func FuzzAffineFill(f *testing.F) {
	f.Add("ACGT", "ACG", "AGT", uint8(4), uint8(1), uint8(6), uint8(2))
	f.Add("", "", "", uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add("AAAAAAAA", "AA", "AAAA", uint8(0), uint8(2), uint8(3), uint8(0))
	f.Add("ACGTACGTACGT", "", "TTTT", uint8(31), uint8(7), uint8(1), uint8(4))
	f.Add("GATTACA", "GCATGCA", "", uint8(11), uint8(1), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c string, open, extend, seed, block uint8) {
		tr, err := makeTriple(a, b, c, 12)
		if err != nil {
			return
		}
		sch, err := dnaSch.WithGaps(-int(open%32), -int(extend%8))
		if err != nil {
			t.Fatal(err)
		}
		q0 := alignment.Move(1 + seed%7)
		ca, cb, cc, err := prepare(tr, sch)
		if err != nil {
			t.Fatal(err)
		}
		n, m, p := len(ca), len(cb), len(cc)
		want := refAffineFill(ca, cb, cc, sch, q0)
		fl := newAffineFill(ca, cb, cc, sch)
		defer fl.release()

		seqFill := seededGarbage(n, m, p, q0)
		fillRangeAffine(seqFill, &fl,
			wavefront.Span{Lo: 0, Hi: n + 1},
			wavefront.Span{Lo: 0, Hi: m + 1},
			wavefront.Span{Lo: 0, Hi: p + 1})
		blocked := seededGarbage(n, m, p, q0)
		runBlocked3D(n, m, p, 1+int(block%5), func(si, sj, sk wavefront.Span) {
			fillRangeAffine(blocked, &fl, si, sj, sk)
		})
		for s := 0; s < 7; s++ {
			wantTensorsEqual(t, seqFill[s], want[s])
			wantTensorsEqual(t, blocked[s], want[s])
		}
	})
}

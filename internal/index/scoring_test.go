package index

import (
	"fmt"
	"math/rand"
	"testing"

	"mie/internal/text"
)

// ranker is the ranked-retrieval surface Inverted and Segmented share.
type ranker interface {
	Add(doc DocID, terms map[Term]uint64) error
	Search(query map[Term]uint64, k int) []Result
}

// newRankers returns a monolithic Inverted and a Segmented that seals every
// few documents, both with the given ranking.
func newRankers(t *testing.T, ranking Ranking) map[string]ranker {
	t.Helper()
	inv, err := New(Options{Ranking: ranking})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmented(SegmentedOptions{Index: Options{Ranking: ranking}, MemtableCap: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		inv.Close()
		seg.Close()
	})
	return map[string]ranker{"inverted": inv, "segmented": seg}
}

// TestRankingRepeatsExactly runs one query 500 times against a corpus full
// of mathematically tied documents: pairs a<i>, b<i> share two terms and
// differ in a third whose weight is the same for both. Summed in map order
// the tie could fall either way from call to call; summed in term order
// every call must return the same hits with the same scores.
func TestRankingRepeatsExactly(t *testing.T) {
	for _, ranking := range []Ranking{RankTFIDF, RankBM25} {
		for name, r := range newRankers(t, ranking) {
			t.Run(fmt.Sprintf("%s/ranking=%d", name, ranking), func(t *testing.T) {
				query := make(map[Term]uint64)
				for i := 0; i < 24; i++ {
					x, xp := Term(fmt.Sprintf("x%d", i)), Term(fmt.Sprintf("xp%d", i))
					y, z := Term(fmt.Sprintf("y%d", i)), Term(fmt.Sprintf("z%d", i))
					tfY, tfZ := uint64(2+i%3), uint64(3+i%5)
					if err := r.Add(DocID(fmt.Sprintf("a%02d", i)), map[Term]uint64{x: 1, y: tfY, z: tfZ}); err != nil {
						t.Fatal(err)
					}
					if err := r.Add(DocID(fmt.Sprintf("b%02d", i)), map[Term]uint64{xp: 1, y: tfY, z: tfZ}); err != nil {
						t.Fatal(err)
					}
					query[x], query[xp], query[y], query[z] = 1, 1, 2, 3
				}
				for i := 0; i < 40; i++ {
					if err := r.Add(DocID(fmt.Sprintf("f%02d", i)), map[Term]uint64{Term(fmt.Sprintf("filler%d", i)): 1}); err != nil {
						t.Fatal(err)
					}
				}
				want := r.Search(query, 100)
				if len(want) != 48 {
					t.Fatalf("got %d hits, want 48", len(want))
				}
				for call := 1; call < 500; call++ {
					got := r.Search(query, 100)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("call %d: hit %d = %+v, first call had %+v", call, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestLookupMatchesPerPostingFormula checks the hoisted per-term scoring
// against text.TFIDF and text.BM25 evaluated posting by posting over the
// live documents, summed in term order: scores must agree exactly, across
// seals, removes and re-adds.
func TestLookupMatchesPerPostingFormula(t *testing.T) {
	for _, ranking := range []Ranking{RankTFIDF, RankBM25} {
		t.Run(fmt.Sprintf("ranking=%d", ranking), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			rankers := newRankers(t, ranking)
			live := make(map[DocID]map[Term]uint64)
			for step := 0; step < 300; step++ {
				doc := DocID(fmt.Sprintf("d%d", rng.Intn(120)))
				if rng.Intn(5) == 0 {
					delete(live, doc)
					rankers["inverted"].(*Inverted).Remove(doc)
					rankers["segmented"].(*Segmented).Remove(doc)
					continue
				}
				terms := randTermsFor(rng, 40, 6)
				live[doc] = terms
				for _, r := range rankers {
					if err := r.Add(doc, terms); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(stage string) {
				t.Helper()
				var totalLen uint64
				for _, terms := range live {
					for _, tf := range terms {
						totalLen += tf
					}
				}
				avgLen := float64(totalLen) / float64(len(live))
				for q := 0; q < 50; q++ {
					query := randTermsFor(rng, 40, 5)
					scores := make(map[DocID]float64)
					for _, term := range sortedTerms(query) {
						df := 0
						for _, terms := range live {
							if terms[term] > 0 {
								df++
							}
						}
						for doc, terms := range live {
							tf := terms[term]
							if tf == 0 {
								continue
							}
							var w float64
							if ranking == RankBM25 {
								var docLen uint64
								for _, f := range terms {
									docLen += f
								}
								w = text.BM25(tf, len(live), df, float64(docLen), avgLen, 0, 0)
							} else {
								w = text.TFIDF(tf, len(live), df)
							}
							scores[doc] += float64(query[term]) * w
						}
					}
					want := TopK(scores, 10)
					for name, r := range rankers {
						got := r.Search(query, 10)
						if len(got) != len(want) {
							t.Fatalf("%s %s query %d: %d hits, want %d", stage, name, q, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s %s query %d: hit %d = %+v, want %+v", stage, name, q, i, got[i], want[i])
							}
						}
					}
				}
			}
			seg := rankers["segmented"].(*Segmented)
			if seg.Stats().DeadDocs == 0 {
				t.Fatal("history left no tombstoned versions to skip")
			}
			check("with tombstones")
			if err := seg.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted")
		})
	}
}

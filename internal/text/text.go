// Package text implements the sparse-media feature extraction pipeline MIE
// clients run before Sparse-DPE encoding (paper §VI): tokenization,
// stop-word removal, Porter stemming, and keyword-frequency histogram
// extraction. It also carries the TF-IDF weighting helpers used by the
// ranking layer.
package text

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopWords is the standard small English stop list; these carry no ranking
// signal and are dropped before indexing, as in the paper's prototype.
var stopWords = map[string]struct{}{
	"a": {}, "about": {}, "above": {}, "after": {}, "again": {}, "against": {},
	"all": {}, "am": {}, "an": {}, "and": {}, "any": {}, "are": {}, "as": {},
	"at": {}, "be": {}, "because": {}, "been": {}, "before": {}, "being": {},
	"below": {}, "between": {}, "both": {}, "but": {}, "by": {}, "can": {},
	"did": {}, "do": {}, "does": {}, "doing": {}, "down": {}, "during": {},
	"each": {}, "few": {}, "for": {}, "from": {}, "further": {}, "had": {},
	"has": {}, "have": {}, "having": {}, "he": {}, "her": {}, "here": {},
	"hers": {}, "him": {}, "his": {}, "how": {}, "i": {}, "if": {}, "in": {},
	"into": {}, "is": {}, "it": {}, "its": {}, "just": {}, "me": {},
	"more": {}, "most": {}, "my": {}, "no": {}, "nor": {}, "not": {},
	"now": {}, "of": {}, "off": {}, "on": {}, "once": {}, "only": {},
	"or": {}, "other": {}, "our": {}, "ours": {}, "out": {}, "over": {},
	"own": {}, "same": {}, "she": {}, "should": {}, "so": {}, "some": {},
	"such": {}, "than": {}, "that": {}, "the": {}, "their": {}, "theirs": {},
	"them": {}, "then": {}, "there": {}, "these": {}, "they": {}, "this": {},
	"those": {}, "through": {}, "to": {}, "too": {}, "under": {}, "until": {},
	"up": {}, "very": {}, "was": {}, "we": {}, "were": {}, "what": {},
	"when": {}, "where": {}, "which": {}, "while": {}, "who": {}, "whom": {},
	"why": {}, "will": {}, "with": {}, "you": {}, "your": {}, "yours": {},
}

// IsStopWord reports whether the lowercase word is on the stop list.
func IsStopWord(w string) bool {
	_, ok := stopWords[w]
	return ok
}

// Tokenize splits raw text into lowercase alphanumeric tokens. Everything
// that is not a letter or digit separates tokens; tokens shorter than two
// runes are dropped.
func Tokenize(raw string) []string {
	var tokens []string
	fields := strings.FieldsFunc(raw, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for _, f := range fields {
		f = strings.ToLower(f)
		if utf8.RuneCountInString(f) < 2 {
			continue
		}
		tokens = append(tokens, f)
	}
	return tokens
}

// Term is a stemmed keyword with its in-document frequency.
type Term struct {
	Word string
	Freq uint64
}

// Histogram is the sparse feature-vector representation of a text document:
// its distinct stemmed keywords and their frequencies, sorted by word for
// deterministic iteration.
type Histogram []Term

// Extract runs the full client-side text pipeline: tokenize, drop stop
// words, stem, and count. The result is what gets Sparse-DPE encoded.
func Extract(raw string) Histogram {
	counts := make(map[string]uint64)
	for _, tok := range Tokenize(raw) {
		if IsStopWord(tok) {
			continue
		}
		stem := Stem(tok)
		if len(stem) < 2 {
			continue
		}
		counts[stem]++
	}
	h := make(Histogram, 0, len(counts))
	for w, c := range counts {
		h = append(h, Term{Word: w, Freq: c})
	}
	sort.Slice(h, func(i, j int) bool { return h[i].Word < h[j].Word })
	return h
}

// TotalFreq returns the sum of term frequencies (document length in
// keywords).
func (h Histogram) TotalFreq() uint64 {
	var n uint64
	for _, t := range h {
		n += t.Freq
	}
	return n
}

// TFIDF computes the classic term weight used by both MIE and the MSSE
// baselines for ranked retrieval: tf * log(N/df), with tf the raw term
// frequency, N the corpus size and df the number of documents containing
// the term. df == 0 or N == 0 yields 0.
func TFIDF(tf uint64, docCount, docFreq int) float64 {
	if tf == 0 {
		return 0
	}
	return float64(tf) * IDF(docCount, docFreq)
}

// IDF is the inverse document frequency TFIDF weighs by: log(N/df), floored
// at 0, and 0 when df or N is not positive. A ranking loop computes it once
// per query term; float64(tf)*IDF(N, df) is then TFIDF(tf, N, df) exactly.
func IDF(docCount, docFreq int) float64 {
	if docFreq <= 0 || docCount <= 0 {
		return 0
	}
	idf := math.Log(float64(docCount) / float64(docFreq))
	if idf < 0 {
		idf = 0
	}
	return idf
}

// BM25 is an alternative weighting function (paper: "more complex functions
// could be used without loss of generality, e.g. BM25"). k1 and b take their
// customary defaults when zero.
func BM25(tf uint64, docCount, docFreq int, docLen, avgDocLen float64, k1, b float64) float64 {
	if tf == 0 || docFreq <= 0 || docCount <= 0 {
		return 0
	}
	return BM25Weight(tf, BM25IDF(docCount, docFreq), docLen, avgDocLen, k1, b)
}

// BM25IDF is BM25's inverse document frequency, log(1 + (N-df+0.5)/(df+0.5)).
// With it computed once per query term, BM25Weight gives BM25 exactly.
func BM25IDF(docCount, docFreq int) float64 {
	return math.Log(1 + (float64(docCount)-float64(docFreq)+0.5)/(float64(docFreq)+0.5))
}

// BM25Weight is BM25 for a term whose BM25IDF is idf.
func BM25Weight(tf uint64, idf, docLen, avgDocLen, k1, b float64) float64 {
	if k1 == 0 {
		k1 = 1.2
	}
	if b == 0 {
		b = 0.75
	}
	if avgDocLen <= 0 {
		avgDocLen = 1
	}
	tff := float64(tf)
	return idf * (tff * (k1 + 1)) / (tff + k1*(1-b+b*docLen/avgDocLen))
}

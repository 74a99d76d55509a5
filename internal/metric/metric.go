// Package metric implements the attribute-level similarity measures that the
// ER pipeline combines into record-pair feature vectors (paper §2.1.1 and
// §6.1.2): Jaccard over character trigrams for short text, tf-idf cosine for
// long text, and normalised absolute difference for numerics.
package metric

import (
	"math"

	"oasis/internal/textutil"
)

// Jaccard returns |a ∩ b| / |a ∪ b| for two sorted, de-duplicated string
// sets (as produced by textutil.NGrams). Two empty sets are defined to have
// similarity 1; one empty set against a non-empty set gives 0.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// CosineSparse returns the cosine similarity of two term-sorted sparse
// vectors, merging them in term order so the sums run in one fixed order.
// For L2-normalised inputs (textutil.Corpus.Vector) this is simply their dot
// product, but the function normalises defensively so it is correct for any
// non-negative sparse vectors. Two empty vectors give 1; one empty gives 0.
func CosineSparse(a, b textutil.SparseVector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	dot := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].Term == b[j].Term:
			dot += a[i].Weight * b[j].Weight
			i++
			j++
		case a[i].Term < b[j].Term:
			i++
		default:
			j++
		}
	}
	na, nb := 0.0, 0.0
	for _, t := range a {
		na += t.Weight * t.Weight
	}
	for _, t := range b {
		nb += t.Weight * t.Weight
	}
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / math.Sqrt(na*nb)
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// ScaledNumericSimilarity maps the absolute difference of two numbers to
// (0, 1] relative to a characteristic scale (e.g. the field's standard
// deviation over the corpus): exp(−|a−b|/scale). Equal values give 1; values
// a scale apart give 1/e. A non-positive or non-finite scale falls back to
// NumericSimilarity, and non-finite inputs give 0. Scale-aware comparison is
// what makes fields like publication years informative: the plain relative
// difference of two years is always ≈1.
func ScaledNumericSimilarity(a, b, scale float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 0
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return NumericSimilarity(a, b)
	}
	return math.Exp(-math.Abs(a-b) / scale)
}

// NumericSimilarity is the paper's normalised absolute difference for
// numeric fields, mapped to [0, 1]: 1 − |a−b| / (|a| + |b|) when the
// denominator is positive; equal values (including 0, 0) give 1. Non-finite
// inputs give 0.
func NumericSimilarity(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 0
	}
	if a == b {
		return 1
	}
	den := math.Abs(a) + math.Abs(b)
	if den == 0 {
		return 1
	}
	s := 1 - math.Abs(a-b)/den
	if s < 0 {
		return 0
	}
	return s
}

// Package metric implements the attribute-level similarity measures that the
// ER pipeline combines into record-pair feature vectors (paper §2.1.1 and
// §6.1.2): trigram Jaccard for short text, tf-idf cosine for long text,
// normalised absolute difference for numerics, plus Levenshtein and
// Jaro-Winkler as additional string measures.
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

// TrigramJaccard is the paper's short-text similarity: Jaccard over character
// trigram sets of the (already normalised) strings.
func TrigramJaccard(a, b string) float64 {
	return Jaccard(textutil.Trigrams(a), textutil.Trigrams(b))
}

// Dice returns the Sørensen-Dice coefficient 2|a∩b| / (|a|+|b|) over sorted
// sets, with the same empty-set conventions as Jaccard.
func Dice(a, b []string) float64 {
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
	return 2 * float64(inter) / float64(len(a)+len(b))
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

// Levenshtein returns the edit distance between a and b (unit costs).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity maps edit distance to a similarity in [0, 1]:
// 1 − d / max(len(a), len(b)). Two empty strings give 1.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// JaroWinkler returns the Jaro-Winkler similarity of a and b with the
// standard prefix scale 0.1 and maximum prefix length 4.
func JaroWinkler(a, b string) float64 {
	j := jaro(a, b)
	if j == 0 {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
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

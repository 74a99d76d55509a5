// Package textutil implements the string pre-processing used by the ER
// pipeline of the paper's §6.1.2: normalisation (symbol, accent and case
// removal), tokenisation, character n-gram extraction and a tf-idf corpus
// model for long-text cosine similarity.
package textutil

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// accentFold maps common accented Latin letters to their ASCII base form.
// The paper normalises strings by "removing symbols, accents &
// capitalisation"; this table covers the Latin-1 / Latin Extended-A
// characters the synthetic generators can emit.
var accentFold = map[rune]rune{
	'à': 'a', 'á': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a', 'ā': 'a',
	'è': 'e', 'é': 'e', 'ê': 'e', 'ë': 'e', 'ē': 'e', 'ė': 'e',
	'ì': 'i', 'í': 'i', 'î': 'i', 'ï': 'i', 'ī': 'i',
	'ò': 'o', 'ó': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o', 'ō': 'o', 'ø': 'o',
	'ù': 'u', 'ú': 'u', 'û': 'u', 'ü': 'u', 'ū': 'u',
	'ý': 'y', 'ÿ': 'y',
	'ñ': 'n', 'ń': 'n',
	'ç': 'c', 'ć': 'c', 'č': 'c',
	'ß': 's', 'ś': 's', 'š': 's',
	'ž': 'z', 'ź': 'z', 'ż': 'z',
}

// Normalize lower-cases s, folds accents, replaces every non-alphanumeric
// rune with a space and collapses runs of whitespace. It implements the
// "pre-processing" stage of the paper's ER pipeline.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range s {
		r = unicode.ToLower(r)
		if folded, ok := accentFold[r]; ok {
			r = folded
		}
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
			lastSpace = false
			continue
		}
		if !lastSpace {
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokens splits a normalised string into whitespace-delimited tokens.
// Callers should Normalize first; Tokens performs no case folding itself.
func Tokens(s string) []string {
	return strings.Fields(s)
}

// NGrams returns the set of character n-grams of s as a sorted, de-duplicated
// slice. Following common record-linkage practice the string is padded with
// n-1 leading and trailing '#' markers so that prefixes and suffixes are
// represented. An empty string yields an empty set.
func NGrams(s string, n int) []string {
	if n <= 0 || s == "" {
		return nil
	}
	pad := strings.Repeat("#", n-1)
	padded := pad + s + pad
	runes := []rune(padded)
	if len(runes) < n {
		return nil
	}
	set := make(map[string]struct{}, len(runes))
	for i := 0; i+n <= len(runes); i++ {
		set[string(runes[i:i+n])] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Trigrams is shorthand for NGrams(s, 3), the unit used by the paper's
// short-text Jaccard features.
func Trigrams(s string) []string { return NGrams(s, 3) }

// Corpus is a tf-idf model over a collection of documents. Build it with
// NewCorpus, then obtain sparse tf-idf vectors with Vector. Inverse document
// frequency uses the smoothed form log((1+N)/(1+df)) + 1, so unseen terms
// still receive a positive weight.
type Corpus struct {
	df   map[string]int
	docs int
}

// NewCorpus scans the documents (already-normalised strings) and records
// document frequencies.
func NewCorpus(docs []string) *Corpus {
	c := &Corpus{df: make(map[string]int)}
	for _, d := range docs {
		c.AddDoc(d)
	}
	return c
}

// AddDoc incorporates one more document into the document-frequency table.
func (c *Corpus) AddDoc(doc string) {
	seen := make(map[string]struct{})
	for _, tok := range Tokens(doc) {
		seen[tok] = struct{}{}
	}
	for tok := range seen {
		c.df[tok]++
	}
	c.docs++
}

// Docs returns the number of documents scanned.
func (c *Corpus) Docs() int { return c.docs }

// IDF returns the smoothed inverse document frequency of term.
func (c *Corpus) IDF(term string) float64 {
	df := c.df[term]
	return math.Log(float64(1+c.docs)/float64(1+df)) + 1
}

// TermWeight is one non-zero entry of a SparseVector.
type TermWeight struct {
	Term   string
	Weight float64
}

// SparseVector is a sparse vector sorted by term. The fixed order makes
// every sum over it — the norm here, the dot product in metric.CosineSparse
// — bit-identical from one run to the next, which a map's randomised
// iteration order would not.
type SparseVector []TermWeight

// Vector returns the L2-normalised tf-idf vector of doc, sorted by term. The
// empty document yields an empty vector.
func (c *Corpus) Vector(doc string) SparseVector {
	toks := Tokens(doc)
	sort.Strings(toks)
	vec := make(SparseVector, 0, len(toks))
	norm := 0.0
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		w := float64(j-i) * c.IDF(toks[i])
		vec = append(vec, TermWeight{Term: toks[i], Weight: w})
		norm += w * w
		i = j
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range vec {
			vec[i].Weight /= norm
		}
	}
	return vec
}

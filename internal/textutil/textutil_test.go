package textutil

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  Café  Déjà-Vu ", "cafe deja vu"},
		{"ABC123", "abc123"},
		{"", ""},
		{"!!!", ""},
		{"Sony   DSC-W350", "sony dsc w350"},
		{"Müller & Söhne GmbH.", "muller sohne gmbh"},
		{"ŠKODA Octavia", "skoda octavia"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeOutputAlphabetProperty(t *testing.T) {
	f := func(s string) bool {
		for _, r := range Normalize(s) {
			ok := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == ' '
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("alpha beta  gamma")
	want := []string{"alpha", "beta", "gamma"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v", got)
	}
	if len(Tokens("")) != 0 {
		t.Error("empty string should yield no tokens")
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("ab", 2)
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams(ab,2) = %v, want %v", got, want)
	}
	if g := NGrams("", 3); g != nil {
		t.Errorf("NGrams of empty = %v", g)
	}
	if g := NGrams("abc", 0); g != nil {
		t.Errorf("NGrams with n=0 = %v", g)
	}
	tri := Trigrams("cat")
	wantTri := []string{"##c", "#ca", "at#", "cat", "t##"}
	if !reflect.DeepEqual(tri, wantTri) {
		t.Errorf("Trigrams(cat) = %v, want %v", tri, wantTri)
	}
}

func TestNGramsSortedUniqueProperty(t *testing.T) {
	f := func(s string, nRaw uint8) bool {
		n := int(nRaw%4) + 1
		g := NGrams(s, n)
		if !sort.StringsAreSorted(g) {
			return false
		}
		for i := 1; i < len(g); i++ {
			if g[i] == g[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorpusIDF(t *testing.T) {
	c := NewCorpus([]string{"apple banana", "apple cherry", "apple"})
	if c.docs != 3 {
		t.Fatalf("Docs = %d", c.docs)
	}
	// "apple" appears in all docs → lowest idf; unseen term → highest.
	if !(c.IDF("apple") < c.IDF("banana")) {
		t.Error("idf(apple) should be < idf(banana)")
	}
	if !(c.IDF("banana") < c.IDF("zebra")) {
		t.Error("idf(banana) should be < idf(unseen)")
	}
	if c.IDF("zebra") <= 0 {
		t.Error("unseen idf should stay positive")
	}
}

func TestCorpusVectorNormalised(t *testing.T) {
	c := NewCorpus([]string{"red green blue", "red red green", "blue"})
	v := c.Vector("red green green blue")
	if len(v) != 3 {
		t.Fatalf("vector terms = %v", v)
	}
	norm := 0.0
	for i, tw := range v {
		norm += tw.Weight * tw.Weight
		if i > 0 && v[i-1].Term >= tw.Term {
			t.Fatalf("vector not sorted by term: %v", v)
		}
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("vector not unit-norm: %v", norm)
	}
	empty := c.Vector("")
	if len(empty) != 0 {
		t.Errorf("empty doc vector = %v", empty)
	}
}

func TestCorpusVectorRepeatedTermsWeighMore(t *testing.T) {
	c := NewCorpus([]string{"x y", "x z", "y z"})
	v := c.Vector("x x y")
	if len(v) != 2 || v[0].Term != "x" || v[1].Term != "y" || !(v[0].Weight > v[1].Weight) {
		t.Errorf("tf weighting broken: %v", v)
	}
}

func TestAddDocIncremental(t *testing.T) {
	c := NewCorpus(nil)
	if c.docs != 0 {
		t.Fatal("fresh corpus should be empty")
	}
	c.AddDoc("alpha beta")
	c.AddDoc("alpha")
	if c.docs != 2 {
		t.Errorf("Docs = %d", c.docs)
	}
	if !(c.IDF("alpha") < c.IDF("beta")) {
		t.Error("idf ordering after incremental adds")
	}
}

func TestNormalizeLongInput(t *testing.T) {
	in := strings.Repeat("Ab1! ", 10000)
	out := Normalize(in)
	if want := strings.TrimRight(strings.Repeat("ab1 ", 10000), " "); out != want {
		t.Error("long input normalisation mismatch")
	}
}

// Package text implements the bio-analysis pipeline of the paper's §IV-E:
// tokenization of user biographies, stopword handling, unigram/bigram/
// trigram frequency counting (Tables I and II), top-k selection, and an
// ASCII word-cloud renderer (Figure 4).
package text

import (
	"sort"
	"strings"
	"unicode"
)

// Tokenize lowercases and splits a bio into word tokens. Letters, digits and
// intra-word apostrophes survive; URLs and @mentions are dropped whole;
// #hashtags keep their word. This mirrors the usual social-bio preprocessing
// before n-gram counting.
func Tokenize(s string) []string {
	fields := strings.Fields(s)
	var out []string
	for _, f := range fields {
		lf := strings.ToLower(f)
		if strings.HasPrefix(lf, "http://") || strings.HasPrefix(lf, "https://") ||
			strings.HasPrefix(lf, "www.") || strings.HasPrefix(lf, "@") {
			continue
		}
		lf = strings.TrimPrefix(lf, "#")
		var b strings.Builder
		for _, r := range lf {
			switch {
			case unicode.IsLetter(r) || unicode.IsDigit(r):
				b.WriteRune(r)
			case r == '\'':
				// keep intra-word apostrophes ("editor's")
				if b.Len() > 0 {
					b.WriteRune(r)
				}
			default:
				if b.Len() > 0 {
					out = appendToken(out, b.String())
					b.Reset()
				}
			}
		}
		if b.Len() > 0 {
			out = appendToken(out, b.String())
		}
	}
	return out
}

func appendToken(out []string, tok string) []string {
	tok = strings.TrimRight(tok, "'")
	if tok == "" {
		return out
	}
	return append(out, tok)
}

// defaultStopwords is the non-informative word list used when filtering
// n-grams "constituted largely of non-informative words" (§IV-E). It holds
// function words only — content words like "official" must survive.
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"of": true, "in": true, "on": true, "at": true, "to": true, "for": true,
	"by": true, "with": true, "from": true, "as": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "been": true,
	"am": true, "it": true, "its": true, "i": true, "im": true, "we": true,
	"you": true, "he": true, "she": true, "they": true, "my": true,
	"our": true, "your": true, "his": true, "her": true, "their": true,
	"me": true, "us": true, "this": true, "that": true, "these": true,
	"those": true, "all": true, "not": true, "no": true, "so": true,
	"do": true, "does": true, "did": true, "have": true, "has": true,
	"had": true, "will": true, "would": true, "can": true, "could": true,
	"about": true, "into": true, "over": true, "than": true, "then": true,
	"too": true, "very": true, "just": true, "more": true, "most": true,
	"here": true, "there": true, "when": true, "where": true, "what": true,
	"who": true, "how": true, "why": true, "up": true, "down": true,
	"out": true, "if": true, "because": true, "while": true, "also": true,
	"et": true, "de": true, "la": true, "el": true, "y": true,
}

// IsStopword reports whether tok is in the default stopword list.
func IsStopword(tok string) bool { return defaultStopwords[tok] }

// NGram is an n-token phrase with its occurrence count.
type NGram struct {
	Tokens []string
	Count  int
}

// Phrase renders the n-gram in Title Case, the presentation style of the
// paper's tables ("Official Twitter Account").
func (g NGram) Phrase() string {
	parts := make([]string, len(g.Tokens))
	for i, t := range g.Tokens {
		parts[i] = titleCase(t)
	}
	return strings.Join(parts, " ")
}

func titleCase(t string) string {
	if t == "" {
		return t
	}
	r := []rune(t)
	r[0] = unicode.ToUpper(r[0])
	return string(r)
}

// Counter accumulates n-gram counts over a corpus for a fixed n.
type Counter struct {
	n      int
	counts map[string]int
}

// NewCounter returns a counter for n-grams of the given order (1, 2, 3, ...).
func NewCounter(n int) *Counter {
	if n < 1 {
		n = 1
	}
	return &Counter{n: n, counts: make(map[string]int)}
}

// Add counts the n-grams of one document's token stream. N-grams never cross
// document boundaries.
func (c *Counter) Add(tokens []string) {
	if len(tokens) < c.n {
		return
	}
	for i := 0; i+c.n <= len(tokens); i++ {
		key := strings.Join(tokens[i:i+c.n], "\x00")
		c.counts[key]++
	}
}

// Top returns the k most frequent n-grams after filtering. An n-gram is
// dropped when the majority of its tokens are stopwords (so "Editor in
// Chief" survives with 1/3 stopwords, while "of the and" dies), or when any
// token is shorter than 2 runes. Ties break lexicographically for
// determinism.
func (c *Counter) Top(k int) []NGram {
	type kv struct {
		key   string
		count int
	}
	var items []kv
	for key, cnt := range c.counts {
		toks := strings.Split(key, "\x00")
		stop := 0
		bad := false
		for _, t := range toks {
			if IsStopword(t) {
				stop++
			}
			if len([]rune(t)) < 2 {
				bad = true
			}
		}
		if bad || stop*2 > len(toks) {
			continue
		}
		items = append(items, kv{key, cnt})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].count != items[j].count {
			return items[i].count > items[j].count
		}
		return items[i].key < items[j].key
	})
	if k > len(items) {
		k = len(items)
	}
	out := make([]NGram, k)
	for i := 0; i < k; i++ {
		out[i] = NGram{
			Tokens: strings.Split(items[i].key, "\x00"),
			Count:  items[i].count,
		}
	}
	return out
}

// Count returns the count of an exact n-gram (tokens already lowercase).
func (c *Counter) Count(tokens ...string) int {
	return c.counts[strings.Join(tokens, "\x00")]
}

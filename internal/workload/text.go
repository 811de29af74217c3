package workload

import (
	"math/rand"
	"strings"
)

// Vocabulary is the word pool for text generation. Words are synthetic but
// have natural-language-like length distribution; frequency follows a
// Zipf(1.1) law so word_count sees the realistic heavy-tailed histogram of
// the Phoenix text inputs.
type Vocabulary struct {
	Words []string
	zipf  *rand.Zipf
	r     *rand.Rand
}

// NewVocabulary builds a vocabulary of n distinct words from the seed.
func NewVocabulary(seed int64, n int) *Vocabulary {
	r := newRand(seed)
	words := make([]string, n)
	seen := make(map[string]bool, n)
	for i := range words {
		for {
			w := randomWord(r)
			if !seen[w] {
				seen[w] = true
				words[i] = w
				break
			}
		}
	}
	return &Vocabulary{
		Words: words,
		zipf:  rand.NewZipf(r, 1.1, 1.0, uint64(n-1)),
		r:     r,
	}
}

// randomWord emits a 2-12 letter lowercase word.
func randomWord(r *rand.Rand) string {
	n := 2 + r.Intn(11)
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(26)))
	}
	return b.String()
}

// Next draws a Zipf-distributed word.
func (v *Vocabulary) Next() string { return v.Words[v.zipf.Uint64()] }

// TextConfig parameterizes the word_count input (Table 2: 10/50/100 MB
// text files, scaled down).
type TextConfig struct {
	Seed      int64
	Bytes     int // approximate output size
	VocabSize int
}

// TextSize returns the word_count input configuration for a size class.
func TextSize(size SizeClass) TextConfig {
	return TextConfig{
		Seed:      42,
		Bytes:     pick(size, 4<<20, 16<<20, 40<<20), // 4/16/40 MB (paper 10/50/100)
		VocabSize: 5000,
	}
}

// GenerateText produces about cfg.Bytes of space-separated Zipfian words
// with line breaks, resembling a natural-language corpus.
func GenerateText(cfg TextConfig) []byte {
	v := NewVocabulary(cfg.Seed, cfg.VocabSize)
	var b strings.Builder
	b.Grow(cfg.Bytes + 64)
	col := 0
	for b.Len() < cfg.Bytes {
		w := v.Next()
		b.WriteString(w)
		col += len(w) + 1
		if col > 70 {
			b.WriteByte('\n')
			col = 0
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String())
}

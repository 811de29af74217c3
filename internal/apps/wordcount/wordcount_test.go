package wordcount

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

func smallInput() *Input {
	return &Input{Text: workload.GenerateText(workload.TextConfig{Seed: 8, Bytes: 200000, VocabSize: 2000})}
}

func TestCountIntoTokenization(t *testing.T) {
	d := dict{}
	countInto([]byte("the cat and the dog\nand the bird  "), d)
	want := map[string]int64{"the": 3, "cat": 1, "and": 2, "dog": 1, "bird": 1}
	if got := d.freeze(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}

func TestCountIntoEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"", 0}, {"   ", 0}, {"x", 1}, {"x y", 2}, {"\n\n", 0},
	} {
		d := dict{}
		countInto([]byte(tc.in), d)
		total := 0
		for _, c := range d.freeze() {
			total += int(c)
		}
		if total != tc.want {
			t.Errorf("countInto(%q) total = %d, want %d", tc.in, total, tc.want)
		}
	}
}

func TestDictMerge(t *testing.T) {
	a, b := dict{}, dict{}
	countInto([]byte("x y x"), a)
	countInto([]byte("y z"), b)
	a.merge(b)
	want := map[string]int64{"x": 2, "y": 2, "z": 1}
	if got := a.freeze(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

func TestTopDeterministicTieBreak(t *testing.T) {
	counts := map[string]int64{"b": 5, "a": 5, "c": 9, "d": 1}
	got := top(counts, 3)
	want := []WordCount{{"c", 9}, {"a", 5}, {"b", 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("top = %v, want %v", got, want)
	}
}

func TestCPMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, workers := range []int{1, 2, 8, 16} {
		got := RunCP(in, workers)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("workers=%d: dictionaries differ (got %d words, want %d)",
				workers, len(got.Counts), len(want.Counts))
		}
		if !reflect.DeepEqual(got.Top, want.Top) {
			t.Fatalf("workers=%d: top lists differ", workers)
		}
	}
}

func TestSSMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, delegates := range []int{1, 4, 8} {
		got, st := RunSS(in, delegates)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Fatalf("delegates=%d: dictionaries differ", delegates)
		}
		if !reflect.DeepEqual(got.Top, want.Top) {
			t.Fatalf("delegates=%d: top lists differ", delegates)
		}
		if st.Reduction <= 0 {
			t.Errorf("delegates=%d: no reduction time recorded", delegates)
		}
	}
}

func TestSplitWordsReassembles(t *testing.T) {
	data := []byte("alpha beta gamma delta epsilon")
	for n := 1; n < 6; n++ {
		var joined []byte
		for _, c := range splitWords(data, workload.Split(len(data), n)) {
			joined = append(joined, c...)
		}
		if string(joined) != string(data) {
			t.Fatalf("n=%d: chunks do not reassemble", n)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	in := &Input{}
	if got := RunSeq(in); len(got.Counts) != 0 || len(got.Top) != 0 {
		t.Fatal("empty seq output not empty")
	}
	if got := RunCP(in, 4); len(got.Counts) != 0 {
		t.Fatal("empty CP output not empty")
	}
	if got, _ := RunSS(in, 2); len(got.Counts) != 0 {
		t.Fatal("empty SS output not empty")
	}
}

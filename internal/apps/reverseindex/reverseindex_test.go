package reverseindex

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

func smallInput() *Input {
	cfg := workload.HTMLSize(workload.Small)
	cfg.Files = 120
	cfg.Dirs = 10
	return &Input{FS: FromHTMLTree(workload.GenerateHTMLTree(cfg))}
}

func TestExtractLinks(t *testing.T) {
	html := []byte(`<html><body>
		hello <a href="http://a.example/x">one</a> filler
		<a href="http://b.example/y">two</a>
		<a href="http://a.example/x">again</a>
		broken <a href="no-close </body></html>`)
	var got []string
	extractLinks(html, func(u string) { got = append(got, u) })
	want := []string{"http://a.example/x", "http://b.example/y", "http://a.example/x"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("links = %v, want %v", got, want)
	}
}

func TestExtractLinksEmpty(t *testing.T) {
	extractLinks(nil, func(string) { t.Fatal("emit on empty content") })
	extractLinks([]byte("no anchors here"), func(string) { t.Fatal("emit without anchors") })
}

func TestSeqBuildsIndex(t *testing.T) {
	in := smallInput()
	out := RunSeq(in)
	if len(out.Index) == 0 {
		t.Fatal("empty index")
	}
	// Every listed file must actually contain the link.
	contents := map[string][]byte{}
	in.FS.Walk(func(f *File) { contents[f.Path] = f.Content })
	for url, files := range out.Index {
		if len(files) == 0 {
			t.Fatalf("link %s has no files", url)
		}
		for _, f := range files {
			found := false
			extractLinks(contents[f], func(u string) {
				if u == url {
					found = true
				}
			})
			if !found {
				t.Fatalf("index claims %s contains %s but it does not", f, url)
			}
		}
	}
}

func TestCPMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, workers := range []int{1, 2, 8} {
		got := RunCP(in, workers)
		if !reflect.DeepEqual(got.Index, want.Index) {
			t.Fatalf("workers=%d: indexes differ (%d vs %d links)", workers, len(got.Index), len(want.Index))
		}
	}
}

func TestSSMatchesSeq(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, delegates := range []int{1, 4, 8} {
		got, st := RunSS(in, delegates)
		if !reflect.DeepEqual(got.Index, want.Index) {
			t.Fatalf("delegates=%d: indexes differ (%d vs %d links)", delegates, len(got.Index), len(want.Index))
		}
		if st.Delegations == 0 {
			t.Errorf("delegates=%d: walk did not delegate", delegates)
		}
	}
}

func TestMergeFileSets(t *testing.T) {
	a := fileSet{"x": {}, "y": {}}
	b := fileSet{"y": {}, "z": {}}
	got := mergeFileSets(a, b)
	if len(got) != 3 {
		t.Fatalf("merged = %v", got)
	}
	if !reflect.DeepEqual(setToSorted(got), []string{"x", "y", "z"}) {
		t.Fatalf("sorted = %v", setToSorted(got))
	}
}

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

// extractLinksBytewise is the scanner extractLinks replaced, which steps
// byte by byte from one tag to the next: FuzzExtractLinks' oracle.
func extractLinksBytewise(content []byte, emit func(url string)) {
	i := 0
	n := len(content)
	for i < n {
		if content[i] != '<' {
			i++
			continue
		}
		i++
		if i >= n || (content[i] != 'a' && content[i] != 'A') {
			continue
		}
		i++
		if i >= n || !isSpace(content[i]) {
			continue
		}
		for i < n && content[i] != '>' {
			for i < n && isSpace(content[i]) {
				i++
			}
			attrStart := i
			for i < n && content[i] != '=' && content[i] != '>' && !isSpace(content[i]) {
				i++
			}
			attr := content[attrStart:i]
			for i < n && isSpace(content[i]) {
				i++
			}
			if i >= n || content[i] != '=' {
				continue
			}
			i++
			for i < n && isSpace(content[i]) {
				i++
			}
			var val []byte
			if i < n && (content[i] == '"' || content[i] == '\'') {
				q := content[i]
				i++
				valStart := i
				for i < n && content[i] != q {
					i++
				}
				if i >= n {
					return
				}
				val = content[valStart:i]
				i++
			} else {
				valStart := i
				for i < n && !isSpace(content[i]) && content[i] != '>' {
					i++
				}
				val = content[valStart:i]
			}
			if isHref(attr) && len(val) > 0 {
				emit(string(val))
			}
		}
	}
}

// FuzzExtractLinks: extractLinks emits exactly what the byte-at-a-time
// scanner does. The seeds run in every plain go test.
func FuzzExtractLinks(f *testing.F) {
	for _, seed := range []string{
		"no tags at all, just text",
		"text then a trailing <",
		"ends in <a",
		`<a href="http://x.example/unterminated`,
		`<A HREF='http://upper.example/'>x</A>`,
		"<a href=http://bare.example/y title=t>z</a>",
		`<a title="1 < 2" href="http://lt.example/">q</a> <a href='<a href=inner>'>`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, content []byte) {
		var got, want []string
		extractLinks(content, func(u string) { got = append(got, u) })
		extractLinksBytewise(content, func(u string) { want = append(want, u) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: links %q, want %q", content, got, want)
		}
	})
}

// linkSink keeps BenchmarkExtractLinksM's calls from being optimized away.
var linkSink int

// BenchmarkExtractLinksM: one pass of the link scanner over every file of
// the M tree.
func BenchmarkExtractLinksM(b *testing.B) {
	var files [][]byte
	Load(workload.Medium).FS.Walk(func(f *File) { files = append(files, f.Content) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range files {
			extractLinks(c, func(string) { linkSink++ })
		}
	}
}

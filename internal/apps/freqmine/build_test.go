package freqmine

import (
	"fmt"
	"reflect"
	"testing"

	prometheus "repro"
	"repro/internal/fpm"
	"repro/internal/workload"
)

// buildCases are the databases the model-built tree is checked on: the
// generated ones at S and M, and edge cases.
func buildCases(t testing.TB) map[string]*Input {
	cases := map[string]*Input{
		"S": Load(workload.Small),
		"M": Load(workload.Medium),
	}
	if testing.Short() {
		delete(cases, "M")
	}
	tiny := []workload.Transaction{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}, {2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	}
	cases["empty"] = &Input{MinSup: 1}
	cases["nothing frequent"] = &Input{Txns: tiny, MinSup: 100}
	cases["no frequent item in a transaction"] = &Input{
		Txns: append([]workload.Transaction{{7}, {}}, append(tiny, workload.Transaction{8, 9})...), MinSup: 2,
	}
	var sparse []workload.Transaction // ids past the item table's slice, and negative ones
	for _, txn := range tiny {
		var s workload.Transaction
		for _, it := range txn {
			s = append(s, map[int]int{1: -7, 2: 1 << 16, 3: 3, 4: 1 << 20, 5: 1<<16 + 9}[it])
		}
		sparse = append(sparse, s)
	}
	cases["sparse ids"] = &Input{Txns: sparse, MinSup: 2}
	cases["minSup 1"] = &Input{Txns: tiny, MinSup: 1}
	small := Load(workload.Small)
	cases["S, minSup 1"] = &Input{Txns: small.Txns[:300], MinSup: 1}
	return cases
}

// TestBuildSSMatchesBuild: the tree built under the model is fpm.Build's,
// field for field, whatever runs the stages.
func TestBuildSSMatchesBuild(t *testing.T) {
	opts := map[string][]prometheus.Option{
		"sequential":  {prometheus.Sequential()},
		"1 delegate":  {prometheus.WithDelegates(1)},
		"2 delegates": {prometheus.WithDelegates(2)},
		"4 delegates": {prometheus.WithDelegates(4)},
	}
	for name, in := range buildCases(t) {
		want := fpm.Build(in.Txns, in.MinSup)
		for cfg, opt := range opts {
			t.Run(fmt.Sprintf("%s/%s", name, cfg), func(t *testing.T) {
				rt := prometheus.Init(opt...)
				defer rt.Terminate()
				if got := buildSS(rt, in); !reflect.DeepEqual(got, want) {
					t.Fatal("the tree built under the model differs from fpm.Build's")
				}
			})
		}
	}
}

// BenchmarkFreqmineBuildM: the FP-tree build at M, under the model with one
// delegate (model) and fpm.Build's one pass (build).
func BenchmarkFreqmineBuildM(b *testing.B) {
	in := Load(workload.Medium)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fpm.Build(in.Txns, in.MinSup)
		}
	})
	b.Run("model", func(b *testing.B) {
		rt := prometheus.Init(prometheus.WithDelegates(1))
		defer rt.Terminate()
		for i := 0; i < b.N; i++ {
			buildSS(rt, in)
		}
	})
}

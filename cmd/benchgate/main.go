// Command benchgate is the CI regression gate for the delegation hot
// paths: it reads `go test -bench` output on stdin, extracts the
// BenchmarkDelegateOverhead, BenchmarkRecursiveOverhead, and
// BenchmarkRecursiveSkewed variants, and compares them against the
// numbers recorded in one or more PR benchmark baselines (-baseline may
// be repeated: BENCH_PR1.json carries the program-context delegation
// table delegate_overhead_variants_after, BENCH_PR3.json the nested
// delegation table recursive_overhead_variants_after, BENCH_PR4.json the
// skewed stealing workload's recursive_skewed_variants_after table). It exits nonzero when a variant regresses by more than
// -max-regress-pct, or when a variant's allocs/op exceed the baseline's.
//
// Raw ns/op is not portable across machines, so -normalize names a canary
// variant (sequential-inline: one trampoline call, no queues, no
// goroutines — pure single-thread machine speed): each variant is compared
// as a ratio to its own table's canary, current vs baseline, which cancels
// the host's clock out of the gate while still catching hot-path
// regressions. Each benchmark table normalizes against the canary variant
// of the same benchmark, so the two gates stay independent.
// Without -normalize the comparison is absolute, for runs on the machine
// that produced the baselines.
//
// Repeated benchmark lines for one variant (go test -count=N) are reduced
// to their minimum, the standard noise suppression for throughput numbers.
//
//	go test -run=NONE -bench 'BenchmarkDelegateOverhead|BenchmarkRecursiveOverhead' -benchmem -count=3 . |
//	  go run ./cmd/benchgate -baseline BENCH_PR1.json -baseline BENCH_PR3.json -normalize sequential-inline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baselineFile mirrors the slice of the BENCH_PR*.json schema the gate
// reads; unknown fields are ignored. A file may carry any subset of the
// variant tables.
type baselineFile struct {
	PR               int                        `json:"pr"`
	DelegateVariants map[string]baselineVariant `json:"delegate_overhead_variants_after"`
	// RecursiveVariants gates the recursive hot path (BENCH_PR3.json).
	RecursiveVariants map[string]baselineVariant `json:"recursive_overhead_variants_after"`
	// SkewedVariants gates the recursive-stealing skewed workload
	// (BENCH_PR4.json). Its numbers are sleep-bound, so gate it in a
	// separate invocation normalized by its own "nosteal" variant: the
	// steal/nosteal ratio — the stealing win itself — is what's pinned,
	// and host differences in effective sleep duration cancel out. The
	// CPU-speed canary would be the wrong normalizer for a sleep-bound
	// table.
	SkewedVariants map[string]baselineVariant `json:"recursive_skewed_variants_after"`
}

type baselineVariant struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"B_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// gateTable is one benchmark's worth of baseline expectations: the bench
// name prefix its variants appear under, and the file/PR they came from.
type gateTable struct {
	bench    string // e.g. "BenchmarkDelegateOverhead"
	source   string
	pr       int
	variants map[string]baselineVariant
}

type measured struct {
	nsOp     float64
	allocsOp float64
	haveMem  bool
}

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkDelegateOverhead/writable-8  20000000  91.26 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseBench resolves a bench row's name against one table's variants.
func parseBench(name, bench string, known map[string]baselineVariant) (variant string, ok bool) {
	prefix := bench + "/"
	if !strings.HasPrefix(name, prefix) {
		return "", false
	}
	v := strings.TrimPrefix(name, prefix)
	// On GOMAXPROCS>1 hosts go test appends a -N tag; prefer an exact
	// baseline match (variant names may themselves end in a number, e.g.
	// writable-spread-4) and only then try stripping the tag.
	if _, exact := known[v]; exact {
		return v, true
	}
	if i := strings.LastIndex(v, "-"); i > 0 {
		if _, err := strconv.Atoi(v[i+1:]); err == nil {
			v = v[:i]
		}
	}
	return v, true
}

func main() {
	var baselinePaths []string
	flag.Func("baseline", "baseline JSON with *_overhead_variants_after tables (repeatable)",
		func(s string) error { baselinePaths = append(baselinePaths, s); return nil })
	var (
		maxRegress = flag.Float64("max-regress-pct", 10, "fail when a variant is this much slower than baseline")
		normalize  = flag.String("normalize", "", "canary variant to ratio both sides against, per table (portable gate)")
	)
	flag.Parse()
	if len(baselinePaths) == 0 {
		baselinePaths = []string{"BENCH_PR1.json"}
	}

	var tables []*gateTable
	for _, path := range baselinePaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatalf("read baseline: %v", err)
		}
		var base baselineFile
		if err := json.Unmarshal(raw, &base); err != nil {
			fatalf("parse baseline %s: %v", path, err)
		}
		if len(base.DelegateVariants) > 0 {
			tables = append(tables, &gateTable{
				bench: "BenchmarkDelegateOverhead", source: path, pr: base.PR,
				variants: base.DelegateVariants,
			})
		}
		if len(base.RecursiveVariants) > 0 {
			tables = append(tables, &gateTable{
				bench: "BenchmarkRecursiveOverhead", source: path, pr: base.PR,
				variants: base.RecursiveVariants,
			})
		}
		if len(base.SkewedVariants) > 0 {
			tables = append(tables, &gateTable{
				bench: "BenchmarkRecursiveSkewed", source: path, pr: base.PR,
				variants: base.SkewedVariants,
			})
		}
		if len(base.DelegateVariants) == 0 && len(base.RecursiveVariants) == 0 &&
			len(base.SkewedVariants) == 0 {
			fatalf("baseline %s has no *_variants_after table", path)
		}
	}

	// got[bench][variant] is the fastest measurement seen for the variant.
	got := map[string]map[string]measured{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the CI log
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		for _, tbl := range tables {
			variant, ok := parseBench(m[1], tbl.bench, tbl.variants)
			if !ok {
				continue
			}
			cur, ok := parseMetrics(m[2])
			if !ok {
				continue
			}
			byVariant := got[tbl.bench]
			if byVariant == nil {
				byVariant = map[string]measured{}
				got[tbl.bench] = byVariant
			}
			if prev, seen := byVariant[variant]; !seen || cur.nsOp < prev.nsOp {
				byVariant[variant] = cur
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}
	if len(got) == 0 {
		fatalf("no gated benchmark results on stdin — did the bench run?")
	}

	failed := false
	for _, tbl := range tables {
		byVariant := got[tbl.bench]
		if byVariant == nil {
			fmt.Printf("benchgate: no %s results on stdin for %s [FAIL]\n", tbl.bench, tbl.source)
			failed = true
			continue
		}
		canaryScale := 1.0
		if *normalize != "" {
			cur, okCur := byVariant[*normalize]
			baseV, okBase := tbl.variants[*normalize]
			if !okCur || !okBase {
				fatalf("%s: normalize variant %q missing (measured: %v, baseline: %v)",
					tbl.bench, *normalize, okCur, okBase)
			}
			canaryScale = baseV.NsOp / cur.nsOp
		}
		for variant, baseV := range tbl.variants {
			cur, ok := byVariant[variant]
			if !ok {
				// A missing variant means the bench run was cut short (panic,
				// deadlock kill, filter typo) — an unmeasured gate must not pass.
				fmt.Printf("benchgate: %s variant %q in baseline but not measured [FAIL]\n", tbl.bench, variant)
				failed = true
				continue
			}
			effective := cur.nsOp * canaryScale
			deltaPct := 100 * (effective - baseV.NsOp) / baseV.NsOp
			status := "ok"
			if variant != *normalize && deltaPct > *maxRegress {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("benchgate: %-28s %-20s baseline %8.2f ns/op, measured %8.2f (scaled %8.2f), delta %+6.1f%% [%s]\n",
				tbl.bench, variant, baseV.NsOp, cur.nsOp, effective, deltaPct, status)
			if cur.haveMem && cur.allocsOp > baseV.AllocsOp {
				fmt.Printf("benchgate: %-28s %-20s allocs/op %.0f, baseline %.0f [FAIL]\n",
					tbl.bench, variant, cur.allocsOp, baseV.AllocsOp)
				failed = true
			}
		}
	}
	if failed {
		fmt.Printf("benchgate: FAIL — hot-path regression beyond %.0f%% vs %s\n",
			*maxRegress, strings.Join(baselinePaths, ", "))
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

// parseMetrics reads the "value unit value unit ..." tail of a bench row.
func parseMetrics(tail string) (measured, bool) {
	fields := strings.Fields(tail)
	var m measured
	okNs := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return m, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.nsOp, okNs = v, true
		case "allocs/op":
			m.allocsOp, m.haveMem = v, true
		}
	}
	return m, okNs
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

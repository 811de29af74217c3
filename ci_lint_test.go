package prometheus

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// A CI step runs its script under `set -e`, and bash does not exit on a
// failing command that is not the last of an `&&` list: in
// `[ "$code" = "500" ] && grep -q chaos out` a wrong status code passes
// the step. A check in a workflow must therefore stand on its own line (or
// in an if, while or until condition). This test holds
// .github/workflows/ci.yml to that.

// ciTestCmd matches a statement that is a test: `[ … ]`, `[[ … ]]`,
// `test …`, or a grep told to be quiet (any short-flag group holding q).
var ciTestCmd = regexp.MustCompile(`^!?\s*(\[\[?\s|test\s|grep(\s+-[A-Za-z]*)*\s+-[A-Za-z]*q)`)

// ciQuoted matches a quoted string, which is blanked before a line is
// split so that an operator inside quotes is not one.
var ciQuoted = regexp.MustCompile(`'[^']*'|"(\\.|[^"\\])*"`)

// testLeftOfAnd reports whether a test sits on the left of an `&&` in the
// shell line, outside a condition.
func testLeftOfAnd(line string) bool {
	line = ciQuoted.ReplaceAllStringFunc(line, func(q string) string { return strings.Repeat("x", len(q)) })
	if i := strings.Index(line, "#"); i >= 0 && (i == 0 || line[i-1] == ' ') {
		line = line[:i]
	}
	for _, stmt := range strings.Split(line, ";") {
		stmt = strings.TrimSpace(stmt)
		if f := strings.Fields(stmt); len(f) > 0 {
			switch f[0] {
			case "if", "elif", "while", "until":
				continue // a condition's failure is its branch, not a missed check
			case "then", "else", "do":
				stmt = strings.TrimSpace(strings.TrimPrefix(stmt, f[0]))
			}
		}
		parts := strings.Split(strings.ReplaceAll(stmt, "||", "\x00"), "&&")
		for _, left := range parts[:len(parts)-1] {
			// The last command of every || alternative and pipeline is
			// the one whose status the && sees.
			alts := strings.Split(left, "\x00")
			stages := strings.Split(alts[len(alts)-1], "|")
			if ciTestCmd.MatchString(strings.TrimSpace(stages[len(stages)-1])) {
				return true
			}
		}
	}
	return false
}

// ciRunLines returns the shell lines of every `run:` in a workflow, with
// backslash continuations joined, as (line number, text) pairs.
func ciRunLines(yml string) (nums []int, lines []string) {
	src := strings.Split(yml, "\n")
	for i := 0; i < len(src); i++ {
		key := strings.TrimLeft(src[i], " -")
		if !strings.HasPrefix(key, "run:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(key, "run:"))
		if body != "|" {
			nums, lines = append(nums, i+1), append(lines, body)
			continue
		}
		indent := len(src[i]) - len(strings.TrimLeft(src[i], " "))
		joined, at := "", 0
		for i+1 < len(src) {
			next := src[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			text := strings.TrimSpace(next)
			if joined == "" {
				at = i + 1
			}
			if cont, ok := strings.CutSuffix(text, `\`); ok {
				joined += cont + " "
				continue
			}
			nums, lines = append(nums, at), append(lines, joined+text)
			joined = ""
		}
	}
	return nums, lines
}

func TestLeftOfAndClassifier(t *testing.T) {
	for _, c := range []struct {
		line string
		red  bool
	}{
		{`[ "$code" = "500" ] && grep -q 'chaos' /tmp/chaos.out`, true},
		{`test -s out && echo ok`, true},
		{`grep -q 'seq=50' out && echo ok`, true},
		{`grep -Eq ' ops=[1-9]' <<<"$out" && echo ok`, true},
		{`curl -s x | grep -qx 'ss_panics_total 1' && echo ok`, true},
		{`set -e; [[ -f x ]] && rm x`, true},
		{`curl -sf 127.0.0.1:18080/healthz >/dev/null && break`, false},
		{`if [ "$i" = 50 ]; then echo "never"; exit 1; fi`, false},
		{`if [ -f a ] && [ -f b ]; then echo both; fi`, false},
		{`[ "$code" = "500" ]`, false},
		{`grep -q 'a && b' out`, false},
		{`grep 'x' out && echo found`, false},
		{`[ -f x ] || exit 1`, false},
		{`# [ x ] && y`, false},
	} {
		if got := testLeftOfAnd(c.line); got != c.red {
			t.Errorf("%s: flagged %v, want %v", c.line, got, c.red)
		}
	}
}

func TestCIWorkflowHasNoTestLeftOfAnd(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	nums, lines := ciRunLines(string(yml))
	if len(lines) < 20 {
		t.Fatalf("read %d shell lines from ci.yml's run steps, want at least 20", len(lines))
	}
	for i, line := range lines {
		if testLeftOfAnd(line) {
			t.Errorf("ci.yml:%d: %s\n\ta test left of && does not fail the step under set -e; put it on its own line", nums[i], line)
		}
	}
}

package loadgen

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Metrics is one scrape of a Prometheus text exposition, keyed by the
// full series name including its label block ("ss_delegates" or
// `ss_delegate_backlog{delegate="1"}`). Just enough parser for the
// harness's assertions — it reads the `name value` and
// `name{labels} value` line shapes ssserve emits and skips comments;
// it is not a general OpenMetrics parser.
type Metrics map[string]float64

// scrapeClient bounds a scrape, so a wedged server fails it instead of
// hanging the caller past its own deadline.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// Scrape fetches and parses url (normally http://host/metrics).
func Scrape(url string) (Metrics, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape %s: status %d", url, resp.StatusCode)
	}
	m := Metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split on the LAST space: label values may contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[strings.TrimSpace(line[:i])] = v
	}
	return m, sc.Err()
}

// Value returns the exact series, e.g. `ss_degraded_keys_total`.
func (m Metrics) Value(series string) (float64, bool) {
	v, ok := m[series]
	return v, ok
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series text
// (name plus label set, as exposed) to value.
type promSample map[string]float64

// scrapeMetrics fetches base/metrics.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of the named metric whose label text contains
// each of the given fragments (e.g. `route="/v1/jobs/{id}"`).
func (p promSample) sum(name string, labelHas ...string) float64 {
	var total float64
	for series, v := range p {
		n, labels, _ := strings.Cut(series, "{")
		if n != name {
			continue
		}
		ok := true
		for _, frag := range labelHas {
			if !strings.Contains(labels, frag) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// promDelta is after − before for one metric selection.
func promDelta(before, after promSample, name string, labelHas ...string) float64 {
	return after.sum(name, labelHas...) - before.sum(name, labelHas...)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// resultSet holds, per workload and mode ("e2e" or "layers"), every value
// each metric took across the runs in one file.
type resultSet map[string]map[string][]float64

// readResults parses a file of captured run output: each result line is
// attributed to the workload named by the env line before it.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	workload := "?"
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Env *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"env"`
			Correct *bool                  `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		if line.Env != nil {
			workload = line.Env.Workload
			continue
		}
		if line.Correct == nil || !*line.Correct {
			continue
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, v := range line.Metrics {
			set[workload][name] = append(set[workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// compareFiles prints, per workload and metric, the median and quartiles
// of each side and the change of the median.
func compareFiles(w io.Writer, before, after string) error {
	a, err := readResults(before)
	if err != nil {
		return err
	}
	b, err := readResults(after)
	if err != nil {
		return err
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, wl := range sortedKeys(names) {
		fmt.Fprintf(tw, "\n%s\tunit\tn\tbefore q1\tmedian\tq3\tn\tafter q1\tmedian\tq3\tdelta\n", wl)
		metrics := map[string]bool{}
		for k := range a[wl] {
			metrics[k] = true
		}
		for k := range b[wl] {
			metrics[k] = true
		}
		for _, m := range sortedKeys(metrics) {
			xa, xb := a[wl][m], b[wl][m]
			delta := "-"
			if ma, mb := median(xa), median(xb); len(xa) > 0 && len(xb) > 0 && ma != 0 {
				delta = fmt.Sprintf("%+.1f%%", (mb-ma)/ma*100)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n", m, units[m], quartiles(xa), quartiles(xb), delta)
		}
	}
	return tw.Flush()
}

func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "0\t-\t-\t-"
	}
	return strings.Join([]string{
		fmt.Sprint(len(xs)),
		fmt.Sprintf("%.4g", quantile(xs, 0.25)),
		fmt.Sprintf("%.4g", quantile(xs, 0.5)),
		fmt.Sprintf("%.4g", quantile(xs, 0.75)),
	}, "\t")
}

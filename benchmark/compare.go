package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// -compare reads two record files (JSON lines, as -record writes them),
// takes each metric's median per workload on each side and applies the
// metric's direction and bound:
//
//	better / worse  the medians differ by more than the bound
//	same            they do not
//	moved           a sim_* metric changed although both sides ran the same
//	                seeds: the modelled fabric behaves differently, which a
//	                pure simulator speed-up must not cause
//	unresolved      a side's run-to-run spread exceeds the bound, so the
//	                metric can be called neither changed nor unchanged
//
// The spread of a side is the distance between the quartiles of its runs as
// a share of their median when it has four or more runs; with fewer, a wall
// rate falls back on the runs' own segment spread. Per-layer metrics have no
// bound and are listed as identical or differs. The exit code is non-zero on
// any worse.

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open record file: %w", err)
	}
	defer f.Close() // read only
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return recs, nil
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// side is one file's runs of one workload in one mode.
type side []record

func (s side) values(metric string) []float64 {
	var out []float64
	for _, r := range s {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s side) spread(metric string) float64 {
	v := s.values(metric)
	if len(v) >= 4 {
		q1, q3 := quartiles(v)
		return ratio(q3-q1, median(v))
	}
	if metric == "wall_msgs_per_s" {
		var own []float64
		for _, r := range s {
			own = append(own, r.Spread)
		}
		return median(own)
	}
	return 0
}

func (s side) seeds() string {
	var ids []string
	for _, r := range s {
		ids = append(ids, fmt.Sprintf("%d/%g", r.Seed, r.Seconds))
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

func verdict(d metricDef, base, cur side) (baseMed, curMed float64, v string) {
	baseMed, curMed = median(base.values(d.name)), median(cur.values(d.name))
	worsening := ratio(curMed-baseMed, baseMed)
	if d.higher {
		worsening = -worsening
	}
	noisy := base.spread(d.name) > d.bound || cur.spread(d.name) > d.bound
	switch {
	case noisy:
		v = "unresolved"
	case worsening > d.bound:
		v = "worse"
	case worsening < -d.bound:
		v = "better"
	case strings.HasPrefix(d.name, "sim_") && baseMed != curMed && base.seeds() == cur.seeds():
		v = "moved"
	default:
		v = "same"
	}
	return baseMed, curMed, v
}

func compareFiles(w io.Writer, basePath, curPath string) (worse bool, err error) {
	baseRecs, err := loadRecords(basePath)
	if err != nil {
		return false, err
	}
	curRecs, err := loadRecords(curPath)
	if err != nil {
		return false, err
	}
	group := func(recs []record, workload string, trace int) side {
		var s side
		for _, r := range recs {
			if r.Workload == workload && r.Trace == trace {
				s = append(s, r)
			}
		}
		return s
	}
	fmt.Fprintf(w, "%-18s %-42s %16s %16s %9s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, def := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			base, cur := group(baseRecs, def.name, trace), group(curRecs, def.name, trace)
			if len(base) == 0 || len(cur) == 0 {
				continue
			}
			for _, r := range append(append(side(nil), base...), cur...) {
				if !r.Correct {
					fmt.Fprintf(w, "%-18s a run with seed %d failed its checks: %s\n", def.name, r.Seed, strings.Join(r.Problems, "; "))
					worse = true
				}
			}
			for _, d := range defs {
				var b, c float64
				var v string
				if trace == 0 {
					b, c, v = verdict(d, base, cur)
					worse = worse || v == "worse"
				} else {
					b, c = median(base.values(d.name)), median(cur.values(d.name))
					v = "differs"
					if b == c {
						v = "identical"
					}
				}
				fmt.Fprintf(w, "%-18s %-42s %16.6g %16.6g %9.4f  %s\n", def.name, d.name, b, c, ratio(c, b), v)
			}
		}
	}
	return worse, nil
}

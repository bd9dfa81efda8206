package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, a HELP and TYPE line
// each, histogram children expanded to cumulative _bucket/_sum/_count
// series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, name := range r.names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's children in insertion order.
func (f *family) sortedChildren() (keys []string, lvals map[string][]string, children map[string]any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys = append([]string(nil), f.keys...)
	lvals = make(map[string][]string, len(keys))
	children = make(map[string]any, len(keys))
	for _, k := range keys {
		lvals[k] = f.lvals[k]
		children[k] = f.children[k]
	}
	return keys, lvals, children
}

func (f *family) writePrometheus(w io.Writer) error {
	keys, lvals, children := f.sortedChildren()
	if len(keys) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, key := range keys {
		labels := formatLabels(f.labels, lvals[key])
		switch m := children[key].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *GaugeFunc:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHistogram(w, f.name, f.labels, lvals[key], m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) error {
	uppers, cumulative, sum, count := h.snapshot()
	for i, up := range uppers {
		le := formatLabels(append(labelNames, "le"), append(append([]string(nil), labelValues...), formatFloat(up)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cumulative[i]); err != nil {
			return err
		}
	}
	le := formatLabels(append(labelNames, "le"), append(append([]string(nil), labelValues...), "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, count); err != nil {
		return err
	}
	base := formatLabels(labelNames, labelValues)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, base, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, base, count)
	return err
}

// formatLabels renders {k="v",...}, or "" without labels.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// histogramJSON is the JSON dump shape of one histogram.
type histogramJSON struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Mean    float64           `json:"mean"`
	Buckets map[string]uint64 `json:"buckets"`
}

// WriteJSON renders every family as a single JSON object keyed by metric
// name — the expvar-style dump served at /debug/vars. Unlabelled metrics
// map to their value; labelled families map to an object keyed by
// comma-joined label values; histograms map to {count, sum, mean, buckets}.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	out := make(map[string]any)
	for _, f := range r.sortedFamilies() {
		keys, lvals, children := f.sortedChildren()
		if len(keys) == 0 {
			continue
		}
		if len(f.labels) == 0 {
			out[f.name] = jsonValue(children[keys[0]])
			continue
		}
		sub := make(map[string]any, len(keys))
		for _, k := range keys {
			sub[strings.Join(lvals[k], ",")] = jsonValue(children[k])
		}
		out[f.name] = sub
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Values flattens the registry into a map from Prometheus series name
// (name plus rendered label set, e.g. `powerd_actions_total{kind="set_freq"}`)
// to current value. Counters, gauges, and gauge funcs contribute one
// entry; histograms contribute their _sum and _count series.
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		keys, lvals, children := f.sortedChildren()
		for _, k := range keys {
			labels := formatLabels(f.labels, lvals[k])
			switch m := children[k].(type) {
			case *Counter:
				out[f.name+labels] = m.Value()
			case *Gauge:
				out[f.name+labels] = m.Value()
			case *GaugeFunc:
				out[f.name+labels] = m.Value()
			case *Histogram:
				_, _, sum, count := m.snapshot()
				out[f.name+"_sum"+labels] = sum
				out[f.name+"_count"+labels] = float64(count)
			}
		}
	}
	return out
}

func jsonValue(m any) any {
	switch m := m.(type) {
	case *Counter:
		return m.Value()
	case *Gauge:
		return m.Value()
	case *GaugeFunc:
		return m.Value()
	case *Histogram:
		uppers, cumulative, sum, count := m.snapshot()
		hj := histogramJSON{Count: count, Sum: sum, Buckets: make(map[string]uint64, len(uppers)+1)}
		if count > 0 {
			hj.Mean = sum / float64(count)
		}
		for i, up := range uppers {
			hj.Buckets[formatFloat(up)] = cumulative[i]
		}
		hj.Buckets["+Inf"] = count
		return hj
	}
	return nil
}

package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders every family in the registry in the
// Prometheus text exposition format (version 0.0.4): one # HELP and
// # TYPE line per family, then one sample line per series (histograms
// expand to cumulative _bucket series plus _sum and _count). Families
// appear in registration order, series in creation order, so output
// is deterministic within a process.
//
// Scrapes race with concurrent observations; each sample line is an
// atomic load, and a histogram's _count is computed from the same
// bucket loads it renders, so every individual series is internally
// consistent even mid-update. The scrape hook, if set, runs first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.scrape != nil {
		r.scrape()
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.help)
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		switch f.kind {
		case counterKind, counterFuncKind:
			bw.WriteString("counter\n")
		case histogramKind:
			bw.WriteString("histogram\n")
		default:
			bw.WriteString("gauge\n")
		}
		for _, s := range f.series {
			switch f.kind {
			case counterKind:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatUint(s.c.Load(), 10))
			case counterFuncKind:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatUint(s.cf(), 10))
			case gaugeKind:
				writeSample(bw, f.name, "", s.labels, "", strconv.FormatInt(s.g.Load(), 10))
			case gaugeFuncKind:
				writeSample(bw, f.name, "", s.labels, "", formatFloat(s.gf()))
			case histogramKind:
				h := s.h
				var cum uint64
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					le := formatFloat(float64(b) * h.scale)
					writeSample(bw, f.name, "_bucket", s.labels, le, strconv.FormatUint(cum, 10))
				}
				cum += h.counts[len(h.bounds)].Load()
				writeSample(bw, f.name, "_bucket", s.labels, "+Inf", strconv.FormatUint(cum, 10))
				writeSample(bw, f.name, "_sum", s.labels, "", formatFloat(float64(h.sum.Load())*h.scale))
				writeSample(bw, f.name, "_count", s.labels, "", strconv.FormatUint(cum, 10))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one line: name+suffix{labels,le="le"} value.
// le == "" omits the le label; labels may be "".
func writeSample(bw *bufio.Writer, name, suffix, labels, le, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if labels != "" || le != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if le != "" {
			if labels != "" {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

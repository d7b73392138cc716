package obs

import (
	"bytes"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders s in Prometheus text exposition format
// (version 0.0.4), walking the catalogue. Series sharing a name are
// grouped under one # HELP / # TYPE header; histograms emit cumulative
// _bucket series with le edges, plus _sum and _count. The render scale
// converts integer base units at the edge (nanoseconds → seconds for
// *_seconds series), so scraped values follow Prometheus base-unit
// conventions.
func WritePrometheus(w io.Writer, s *Set) error {
	var b bytes.Buffer
	prevName := ""
	for _, e := range catalogue {
		if e.name == "" {
			continue
		}
		f := e.field(s)
		if e.name != prevName {
			if e.help != "" {
				b.WriteString("# HELP " + e.name + " " + e.help + "\n")
			}
			b.WriteString("# TYPE " + e.name + " " + kind(f) + "\n")
			prevName = e.name
		}
		switch f := f.(type) {
		case **Counter:
			sample(&b, e.name, e.label, "", scaled((*f).Value(), e.scale))
		case **Gauge:
			sample(&b, e.name, e.label, "", scaled((*f).Value(), e.scale))
		case **Histogram:
			h := (*f).Snapshot()
			var cum int64
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatFloat(float64(h.Bounds[i]) * e.scale)
				}
				sample(&b, e.name+"_bucket", e.label, le, strconv.FormatInt(cum, 10))
			}
			sample(&b, e.name+"_sum", e.label, "", scaled(h.Sum, e.scale))
			sample(&b, e.name+"_count", e.label, "", strconv.FormatInt(cum, 10))
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// WriteJSON renders s as a single JSON object keyed by series (name plus
// inline label), with counters and gauges as scaled numbers and
// histograms as {count, sum, mean, p50, p95, p99} objects. This is the
// /debug/stats live view; it walks the same catalogue as the Prometheus
// exposition.
func WriteJSON(w io.Writer, s *Set) error {
	var b bytes.Buffer
	b.WriteString("{\n")
	sep := ""
	for _, e := range catalogue {
		if e.name == "" {
			continue
		}
		key := e.name
		if e.label != "" {
			key += "{" + e.label + "}"
		}
		b.WriteString(sep + "  " + strconv.Quote(key) + ": ")
		sep = ",\n"
		switch f := e.field(s).(type) {
		case **Counter:
			b.WriteString(scaled((*f).Value(), e.scale))
		case **Gauge:
			b.WriteString(scaled((*f).Value(), e.scale))
		case **Histogram:
			h := (*f).Snapshot()
			b.WriteString(`{"count": ` + strconv.FormatInt(h.Count(), 10) +
				`, "sum": ` + scaled(h.Sum, e.scale) +
				`, "mean": ` + formatFloat(h.Mean()*e.scale) +
				`, "p50": ` + formatFloat(h.Quantile(0.50)*e.scale) +
				`, "p95": ` + formatFloat(h.Quantile(0.95)*e.scale) +
				`, "p99": ` + formatFloat(h.Quantile(0.99)*e.scale) + "}")
		}
	}
	b.WriteString("\n}\n")
	_, err := w.Write(b.Bytes())
	return err
}

// kind is the Prometheus TYPE of a catalogue field.
func kind(f any) string {
	switch f.(type) {
	case **Counter:
		return "counter"
	case **Gauge:
		return "gauge"
	}
	return "histogram"
}

// sample writes one exposition line: name{label,le="x"} value.
func sample(b *bytes.Buffer, name, label, le, value string) {
	var labels []string
	if k, v, ok := strings.Cut(label, "="); ok {
		labels = append(labels, k+`="`+v+`"`)
	}
	if le != "" {
		labels = append(labels, `le="`+le+`"`)
	}
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteString("{" + strings.Join(labels, ",") + "}")
	}
	b.WriteString(" " + value + "\n")
}

// scaled formats v×scale: integer form when unscaled, shortest float
// otherwise.
func scaled(v int64, scale float64) string {
	if scale == 0 {
		return strconv.FormatInt(v, 10)
	}
	return formatFloat(float64(v) * scale)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"helios/internal/stats"
)

// PromWriter renders the OpenMetrics 1.0.0 text exposition: one
// HELP/TYPE header per metric family followed by its samples. Callers
// emit families in order; the writer tracks seen names and refuses a
// family that reappears after another family's samples (promtool
// rejects ungrouped families). Errors latch: the first write or format
// error is kept and later calls no-op.
//
// Callers name counters with their `_total` suffix; the writer
// TYPE-declares the family without it, as OpenMetrics requires.
// Histogram bucket samples may carry `# {trace_id="..."} value
// timestamp` exemplars, and the exposition ends with `# EOF` (Close
// emits it).
type PromWriter struct {
	w    io.Writer
	err  error
	seen map[string]bool
}

// OpenMetricsContentType is the Content-Type of the OpenMetrics
// exposition, the only text form heliosd serves.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// NewOpenMetricsWriter wraps w in an OpenMetrics 1.0.0 writer.
// Callers must Close() the writer to terminate the exposition with
// `# EOF` (LintExposition enforces it).
func NewOpenMetricsWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Close terminates the exposition.
func (p *PromWriter) Close() { p.printf("# EOF\n") }

// Err reports the latched error, if any.
func (p *PromWriter) Err() error { return p.err }

// Label is one name="value" sample label.
type Label struct {
	Name  string
	Value string
}

func (p *PromWriter) header(name, typ, help string) {
	if p.err != nil {
		return
	}
	if !promNameRe.MatchString(name) {
		p.err = fmt.Errorf("telemetry: invalid metric name %q", name)
		return
	}
	if p.seen[name] {
		p.err = fmt.Errorf("telemetry: metric family %q emitted twice", name)
		return
	}
	p.seen[name] = true
	fam := name
	if typ == "counter" {
		// OpenMetrics declares the counter family without _total; the
		// samples keep the suffix.
		fam = strings.TrimSuffix(name, "_total")
	}
	p.printf("# HELP %s %s\n# TYPE %s %s\n", fam, escapeHelp(help), fam, typ)
}

func (p *PromWriter) sample(name string, labels []Label, value string) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
		}
		sb.WriteByte('}')
	}
	p.printf("%s %s\n", sb.String(), value)
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Counter emits a single-sample counter family.
func (p *PromWriter) Counter(name, help string, v uint64, labels ...Label) {
	p.header(name, "counter", help)
	p.sample(name, labels, strconv.FormatUint(v, 10))
}

// CounterVec emits one counter family with one sample per label set.
func (p *PromWriter) CounterVec(name, help string, samples []LabeledValue) {
	p.header(name, "counter", help)
	for _, s := range samples {
		p.sample(name, s.Labels, strconv.FormatUint(s.Value, 10))
	}
}

// LabeledValue is one sample of a CounterVec/GaugeVec family.
type LabeledValue struct {
	Labels []Label
	Value  uint64
}

// Gauge emits a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	p.header(name, "gauge", help)
	p.sample(name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// histBucketStride picks which stats.Histogram bucket boundaries become
// `le` bounds: every 4th boundary from 15 up (one per octave), which
// are exact cumulative cut points of the underlying geometry — the
// exposition never interpolates.
const histBucketStride = 4

// Histogram emits h as a Prometheus histogram family in base units of
// the caller's choosing (heliosd uses microseconds and says so in the
// metric name, per the naming convention in DESIGN.md §16). Samples
// clamped into the last bucket by the 2^24 geometry cap surface in the
// final finite bucket, so the +Inf bucket always equals _count.
func (p *PromWriter) Histogram(name, help string, h stats.Histogram, labels ...Label) {
	p.header(name, "histogram", help)
	p.histSeries(name, labels, h, Exemplars{})
}

// Exemplars attaches an ExemplarSet to a histogram emission. Keep, when
// non-nil, is the retention filter: exemplars whose trace it rejects
// are skipped, so a bucket never links to a trace /tracez has evicted.
type Exemplars struct {
	Set  *ExemplarSet
	Keep func(traceID uint64) bool
}

// HistogramEx is Histogram plus per-bucket exemplars. Each exposed `le`
// bucket carries the newest retained exemplar among the underlying fine
// buckets it covers.
func (p *PromWriter) HistogramEx(name, help string, h stats.Histogram, ex Exemplars, labels ...Label) {
	p.header(name, "histogram", help)
	p.histSeries(name, labels, h, ex)
}

// LabeledHist is one series of a HistogramVec family. Ex is optional.
type LabeledHist struct {
	Labels []Label
	Hist   stats.Histogram
	Ex     Exemplars
}

// HistogramVec emits one histogram family with one bucket series per
// label set (heliosd's span-duration histograms label by span name).
func (p *PromWriter) HistogramVec(name, help string, series []LabeledHist) {
	p.header(name, "histogram", help)
	for _, s := range series {
		p.histSeries(name, s.Labels, s.Hist, s.Ex)
	}
}

func (p *PromWriter) histSeries(name string, labels []Label, h stats.Histogram, ex Exemplars) {
	var cum uint64
	prev := -1 // first exposed bucket covers fine buckets [0, 15]
	i := 0
	for i < stats.NumHistBuckets {
		cum += h.Buckets[i]
		if i >= 15 && (i-15)%histBucketStride == 0 {
			p.bucketSample(name, labels, strconv.FormatUint(stats.HistBucketBound(i), 10), cum, p.pickExemplar(ex, prev+1, i))
			prev = i
		}
		i++
	}
	p.bucketSample(name, labels, "+Inf", h.Count, nil)
	p.sample(name+"_sum", labels, strconv.FormatUint(h.Sum, 10))
	p.sample(name+"_count", labels, strconv.FormatUint(h.Count, 10))
}

func (p *PromWriter) pickExemplar(ex Exemplars, lo, hi int) *Exemplar {
	if ex.Set == nil {
		return nil
	}
	e, ok := ex.Set.Pick(lo, hi, ex.Keep)
	if !ok {
		return nil
	}
	return &e
}

func (p *PromWriter) bucketSample(name string, labels []Label, le string, v uint64, ex *Exemplar) {
	bl := make([]Label, 0, len(labels)+1)
	bl = append(bl, labels...)
	bl = append(bl, Label{Name: "le", Value: le})
	if ex == nil {
		p.sample(name+"_bucket", bl, strconv.FormatUint(v, 10))
		return
	}
	value := strconv.FormatUint(v, 10) +
		fmt.Sprintf(" # {trace_id=%q} %d %s",
			strconv.FormatUint(ex.TraceID, 10), ex.Value,
			strconv.FormatFloat(float64(ex.TSUnixUS)/1e6, 'f', 6, 64))
	p.sample(name+"_bucket", bl, value)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// LintExposition is the promtool-shaped checker the CI smoke job runs
// against /metricz output — stdlib-only, mirroring `promtool check
// metrics`-adjacent parse rules for OpenMetrics 1.0.0:
//
//   - metric and label names match the Prometheus grammar
//   - TYPE lines precede their family's samples, appear at most once,
//     and carry a known type; HELP at most once per family
//   - families are contiguous (no interleaving) and samples parse as
//     <name>{labels} <value> with a float-parseable value; a counter
//     family declared without `_total` owns its `_total` samples
//   - no duplicate name+labelset
//   - `# {...}` exemplars appear only on _bucket and _total samples and
//     carry a trace_id; on a bucket their value lies inside it
//   - histogram families have ascending cumulative le buckets ending
//     in +Inf, plus _sum and _count, with _count equal to the +Inf
//     bucket
//   - the exposition ends with `# EOF`
//
// It returns the first violation found, prefixed with its line number.
func LintExposition(r io.Reader) error {
	return LintExpositionOptions(r, LintOptions{})
}

// LintOptions extends the linter with checks against live state.
type LintOptions struct {
	// ResolveTrace, when non-nil, is the retention-consistency check:
	// every exemplar's trace_id must resolve (heliosctl points it at
	// /tracez?id=..., tests at Tracer.Retained). Dangling exemplars —
	// a bucket deep-linking to an evicted trace — are a lint error.
	ResolveTrace func(traceID string) bool
}

// LintExpositionOptions lints r under opts; see LintExposition.
func LintExpositionOptions(r io.Reader, opts LintOptions) error {
	l := &promLinter{
		types:   map[string]string{},
		helped:  map[string]bool{},
		closed:  map[string]bool{},
		seen:    map[string]bool{},
		hists:   map[string]*histCheck{},
		resolve: opts.ResolveTrace,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if err := l.line(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return fmt.Errorf("empty exposition")
	}
	return l.finish()
}

type histCheck struct {
	lastLE   float64
	haveInf  bool
	infCount float64
	count    float64
	haveCnt  bool
	haveSum  bool
}

type promLinter struct {
	types   map[string]string // family → declared type
	helped  map[string]bool
	closed  map[string]bool // family had samples and a later family began
	seen    map[string]bool // name+labels duplicates
	hists   map[string]*histCheck
	cur     string // family currently being emitted
	resolve func(string) bool
	sawEOF  bool
}

var (
	promHelpRe     = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	promTypeRe     = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped|unknown)$`)
	promSampleRe   = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+\d+)?\s*$`)
	promLabelRe    = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
	promExemplarRe = regexp.MustCompile(`^\{([^}]*)\} (\S+)( (\S+))?$`)
)

// family strips histogram/summary sample suffixes to the declaring
// family name when that family was TYPE-declared, and the `_total`
// suffix of counter samples.
func (l *promLinter) family(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t := l.types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	if base, ok := strings.CutSuffix(name, "_total"); ok {
		if l.types[base] == "counter" {
			return base
		}
	}
	return name
}

func (l *promLinter) enter(fam string) error {
	if l.cur == fam {
		return nil
	}
	if l.cur != "" {
		l.closed[l.cur] = true
	}
	if l.closed[fam] {
		return fmt.Errorf("family %q reappears after other families (samples must be grouped)", fam)
	}
	l.cur = fam
	return nil
}

func (l *promLinter) line(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	if l.sawEOF {
		return fmt.Errorf("content after # EOF: %q", s)
	}
	if strings.HasPrefix(s, "#") {
		if s == "# EOF" {
			l.sawEOF = true
			return nil
		}
		if m := promHelpRe.FindStringSubmatch(s); m != nil {
			if l.helped[m[1]] {
				return fmt.Errorf("second HELP for %q", m[1])
			}
			l.helped[m[1]] = true
			return l.enter(m[1])
		}
		if m := promTypeRe.FindStringSubmatch(s); m != nil {
			if _, dup := l.types[m[1]]; dup {
				return fmt.Errorf("second TYPE for %q", m[1])
			}
			l.types[m[1]] = m[2]
			return l.enter(m[1])
		}
		if strings.HasPrefix(s, "# HELP") || strings.HasPrefix(s, "# TYPE") {
			return fmt.Errorf("malformed comment line %q", s)
		}
		return nil // free-form comment
	}
	s, ex, err := l.splitExemplar(s)
	if err != nil {
		return err
	}
	m := promSampleRe.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("unparseable sample line %q", s)
	}
	name, rawLabels, rawValue := m[1], m[3], m[4]
	if ex != nil {
		if !strings.HasSuffix(name, "_bucket") && !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("exemplar on %q (only _bucket and _total samples may carry exemplars)", name)
		}
	}
	value, err := parsePromValue(rawValue)
	if err != nil {
		return fmt.Errorf("sample %q: %w", name, err)
	}
	var le string
	canon := name
	var nonLE []string
	if rawLabels != "" {
		pairs := splitLabels(rawLabels)
		var parts []string
		for _, pair := range pairs {
			lm := promLabelRe.FindStringSubmatch(pair)
			if lm == nil {
				return fmt.Errorf("bad label %q in %q", pair, name)
			}
			if lm[1] == "le" {
				le = lm[2]
			} else {
				nonLE = append(nonLE, lm[1]+"="+lm[2])
			}
			parts = append(parts, lm[1]+"="+lm[2])
		}
		sort.Strings(parts)
		canon += "{" + strings.Join(parts, ",") + "}"
	}
	if l.seen[canon] {
		return fmt.Errorf("duplicate sample %q", canon)
	}
	l.seen[canon] = true
	fam := l.family(name)
	if err := l.enter(fam); err != nil {
		return err
	}
	typ, declared := l.types[fam]
	if !declared {
		return fmt.Errorf("sample %q lacks a preceding TYPE declaration", name)
	}
	if typ == "histogram" {
		// A vector histogram family holds one independent bucket series
		// per non-le label set; bucket ordering and the +Inf/_count
		// equation hold within a series, not across the family.
		sort.Strings(nonLE)
		series := fam + "{" + strings.Join(nonLE, ",") + "}"
		return l.histSample(fam, series, name, le, value, ex)
	}
	return nil
}

// lintExemplar is a parsed `# {labels} value [timestamp]` sample tail.
type lintExemplar struct {
	traceID string
	value   float64
}

// splitExemplar peels an OpenMetrics exemplar off a sample line,
// validating its syntax and (when a resolver is installed) that its
// trace_id resolves to a retained trace. Returns the line with the
// exemplar removed.
func (l *promLinter) splitExemplar(s string) (string, *lintExemplar, error) {
	idx := strings.Index(s, " # ")
	if idx < 0 {
		return s, nil, nil
	}
	tail := s[idx+3:]
	m := promExemplarRe.FindStringSubmatch(tail)
	if m == nil {
		return s, nil, fmt.Errorf("malformed exemplar %q", tail)
	}
	rawLabels, rawValue, rawTS := m[1], m[2], m[4]
	value, err := parsePromValue(rawValue)
	if err != nil {
		return s, nil, fmt.Errorf("exemplar value: %w", err)
	}
	if rawTS != "" {
		if _, err := strconv.ParseFloat(rawTS, 64); err != nil {
			return s, nil, fmt.Errorf("exemplar timestamp %q: %w", rawTS, err)
		}
	}
	ex := &lintExemplar{value: value}
	if rawLabels != "" {
		for _, pair := range splitLabels(rawLabels) {
			lm := promLabelRe.FindStringSubmatch(pair)
			if lm == nil {
				return s, nil, fmt.Errorf("bad exemplar label %q", pair)
			}
			if lm[1] == "trace_id" {
				ex.traceID = lm[2]
			}
		}
	}
	if ex.traceID == "" {
		return s, nil, fmt.Errorf("exemplar lacks a trace_id label: %q", tail)
	}
	if l.resolve != nil && !l.resolve(ex.traceID) {
		return s, nil, fmt.Errorf("exemplar trace_id=%q does not resolve to a retained trace", ex.traceID)
	}
	return s[:idx], ex, nil
}

func (l *promLinter) histSample(fam, series, name, le string, value float64, ex *lintExemplar) error {
	hc := l.hists[series]
	if hc == nil {
		hc = &histCheck{lastLE: math.Inf(-1)}
		l.hists[series] = hc
	}
	switch name {
	case fam + "_bucket":
		if le == "" {
			return fmt.Errorf("histogram bucket of %q lacks an le label", fam)
		}
		bound, err := parsePromValue(le)
		if err != nil {
			return fmt.Errorf("histogram %q le=%q: %w", fam, le, err)
		}
		if bound <= hc.lastLE {
			return fmt.Errorf("histogram %q buckets out of order at le=%q", fam, le)
		}
		if value < hc.infCount {
			return fmt.Errorf("histogram %q bucket counts not cumulative at le=%q", fam, le)
		}
		if ex != nil && (ex.value > bound || ex.value <= hc.lastLE) {
			return fmt.Errorf("histogram %q exemplar value %v outside bucket (%v, %v]",
				fam, ex.value, hc.lastLE, bound)
		}
		hc.lastLE = bound
		hc.infCount = value
		if math.IsInf(bound, +1) {
			hc.haveInf = true
		}
	case fam + "_sum":
		hc.haveSum = true
	case fam + "_count":
		hc.haveCnt = true
		hc.count = value
	case fam:
		return fmt.Errorf("histogram %q has a bare sample (expected _bucket/_sum/_count)", fam)
	}
	return nil
}

func (l *promLinter) finish() error {
	// Deterministic iteration: report the lexically first broken series.
	series := make([]string, 0, len(l.hists))
	for s := range l.hists {
		series = append(series, s)
	}
	sort.Strings(series)
	for _, s := range series {
		hc := l.hists[s]
		if !hc.haveInf {
			return fmt.Errorf("histogram series %q lacks a +Inf bucket", s)
		}
		if !hc.haveSum || !hc.haveCnt {
			return fmt.Errorf("histogram series %q lacks _sum or _count", s)
		}
		if hc.count != hc.infCount {
			return fmt.Errorf("histogram series %q _count %v != +Inf bucket %v", s, hc.count, hc.infCount)
		}
	}
	if !l.sawEOF {
		return fmt.Errorf("OpenMetrics exposition does not end with # EOF")
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("non-numeric value %q", s)
	}
	return v, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQ, esc := false, false
	for _, r := range s {
		switch {
		case esc:
			esc = false
			cur.WriteRune(r)
		case r == '\\' && inQ:
			esc = true
			cur.WriteRune(r)
		case r == '"':
			inQ = !inQ
			cur.WriteRune(r)
		case r == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

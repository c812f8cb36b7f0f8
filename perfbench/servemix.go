package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/serve"
	"helios/internal/workloads"
)

const (
	serveInsts   = 100_000 // instruction budget of hits and misses
	serveClients = 2       // closed-loop clients, one keep-alive connection each
	serveSetups  = 3
	// Each block of mixBlock requests holds exactly mixMisses misses and
	// mixObs obs requests, in seeded order; the rest are hits.
	mixBlock  = 50
	mixMisses = 5
	mixObs    = 1
	// obsDiv divides the budget of obs requests: an artifact of one
	// µ-op stream is large, so obs requests replay a shorter one.
	obsDiv = 5
)

// Misses cycle through these workloads, whose replays cost about the
// same, so the miss latency distribution has one mode. Obs requests
// cycle through obsServe × obsKinds, whose costs are also close.
var (
	missWorkloads = []string{"adpcm", "mcf", "perlbench"}
	obsServe      = []string{"xz"}
	obsKinds      = []string{"events", "pipeview"}
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindObs
)

var kindNames = [...]string{"hit", "miss", "obs"}

// reqSpec is one generated request.
type reqSpec struct {
	kind reqKind
	run  serve.RunRequest
}

// mixGen generates the seeded request sequence. Both clients draw from
// one generator, so the sequence is fixed by the seed; only which
// client sends which request varies.
type mixGen struct {
	mu     sync.Mutex
	rng    *rand.Rand
	insts  uint64
	block  []reqKind
	misses int
	obs    int
}

func newMixGen(seed int64, insts uint64) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed)), insts: insts}
}

// missConfig returns the i-th miss's machine: Helios with a perturbed
// ROB, IQ and LQ size, distinct for every i below 65536.
func missConfig(i int) *ooo.Config {
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.ROBSize -= 1 + i%64
	cfg.IQSize -= (i / 64) % 32
	cfg.LQSize -= (i / 2048) % 32
	return &cfg
}

// again returns spec to be sent once more: a miss gets the next fresh
// machine config, so that it misses the cache again, and hits and obs
// requests are sent unchanged.
func (g *mixGen) again(spec reqSpec) reqSpec {
	if spec.kind == kindMiss {
		g.mu.Lock()
		spec.run.Config = missConfig(g.misses)
		g.misses++
		g.mu.Unlock()
	}
	return spec
}

func (g *mixGen) next() reqSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = make([]reqKind, mixBlock)
		for i := range g.block {
			switch {
			case i < mixMisses:
				g.block[i] = kindMiss
			case i < mixMisses+mixObs:
				g.block[i] = kindObs
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	k := g.block[0]
	g.block = g.block[1:]
	spec := reqSpec{kind: k, run: serve.RunRequest{Insts: g.insts, Mode: fusion.ModeHelios.String()}}
	switch k {
	case kindHit:
		names := workloads.Names()
		spec.run.Workload = names[g.rng.Intn(len(names))]
	case kindMiss:
		spec.run.Workload = missWorkloads[g.misses%len(missWorkloads)]
		spec.run.Config = missConfig(g.misses)
		g.misses++
	case kindObs:
		spec.run.Workload = obsServe[g.obs%len(obsServe)]
		spec.run.Insts = g.insts / obsDiv
		spec.run.Obs = obsKinds[(g.obs/len(obsServe))%len(obsKinds)]
		g.obs++
	}
	return spec
}

// reply is what a client keeps of one response, for checking after the
// measured phase.
type reply struct {
	spec   reqSpec
	ms     float64
	status int
	cached bool
	stats  string // SHA-256 of the reply's stats, re-encoded
	art    string // obs: SHA-256 of the decoded artifact ("" if it did not match its own digest)
}

// statsDigest is the comparison form of a result's stats.
func statsDigest(st *ooo.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// service is one in-process heliosd behind a loopback HTTP server.
type service struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	cancel context.CancelFunc
}

// heliosdConfig is heliosd's default flag set: telemetry on, sampler off.
func heliosdConfig(telemetry bool) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Telemetry = telemetry
	return cfg
}

func newService(telemetry bool) *service {
	ctx, cancel := context.WithCancel(context.Background())
	srv := serve.New(ctx, heliosdConfig(telemetry))
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	return &service{srv: srv, ts: ts, client: &http.Client{Transport: tr}, cancel: cancel}
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.cancel()
}

// post sends one run request and times it at the client, up to the last
// byte of the reply.
func (s *service) post(spec reqSpec) (reply, []byte) {
	body, _ := json.Marshal(spec.run) // RunRequest is plain data
	t0 := time.Now()
	rep := reply{spec: spec}
	resp, err := s.client.Post(s.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		rep.ms = seconds(t0) * 1e3
		return rep, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.ms = seconds(t0) * 1e3
	rep.status = resp.StatusCode
	if err != nil {
		rep.status = 0
	}
	return rep, data
}

// decode fills in what a reply says, outside the timed region.
func (rep *reply) decode(data []byte) {
	if rep.status != http.StatusOK {
		return
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		rep.status = 0
		return
	}
	rep.cached = rr.Cached
	rep.stats = statsDigest(&rr.Stats)
	if a := rr.Artifact; a != nil {
		raw, err := base64.StdEncoding.DecodeString(a.Data)
		sum := sha256.Sum256(raw)
		if err == nil && hex.EncodeToString(sum[:]) == a.SHA256 {
			rep.art = a.SHA256
		}
	}
}

// warm fills the result cache with the hot set, every workload's
// default-config result at the mix's budget, and records the obs
// requests' shorter streams.
func (s *service) warm(insts uint64) error {
	var runs []serve.RunRequest
	for _, w := range workloads.Names() {
		runs = append(runs, serve.RunRequest{Workload: w, Mode: fusion.ModeHelios.String(), Insts: insts})
	}
	for _, w := range obsServe {
		runs = append(runs, serve.RunRequest{Workload: w, Mode: fusion.ModeHelios.String(), Insts: insts / obsDiv})
	}
	errs := make([]error, len(runs))
	parallel(serveClients, len(runs), func(i int) {
		if rep, _ := s.post(reqSpec{kind: kindHit, run: runs[i]}); rep.status != http.StatusOK {
			errs[i] = fmt.Errorf("warm %s: status %d", runs[i].Workload, rep.status)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs serveClients clients, each sending the request next
// returns when its last reply has arrived, until `until` passes or n
// requests have been sent (n ≤ 0: no count limit). It returns the
// replies and the elapsed wall time.
func (s *service) closedLoop(next func() reqSpec, until time.Time, n int, sp *spans) ([]reply, float64) {
	var mu sync.Mutex
	var out []reply
	sent := 0
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				mu.Lock()
				done := n > 0 && sent >= n
				sent++
				mu.Unlock()
				if done {
					return
				}
				spec := next()
				id := sp.start("serve.request", kindNames[spec.kind], 0)
				rep, data := s.post(spec)
				sp.end(id)
				rep.decode(data)
				mu.Lock()
				out = append(out, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, seconds(t0)
}

// verify checks every reply against a direct core.Suite computation of
// the same workload, config and budget: hits must be served from the
// cache, misses must not be, and obs artifacts must equal a local
// observed replay's. It counts one operation per reply.
func verify(ctx context.Context, ref *core.Suite, insts uint64, replies []reply, res *result) error {
	want := map[string]string{} // hit workload -> stats digest
	obsWant := map[string][2]string{}
	var mu sync.Mutex
	names := workloads.Names()
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	parallel(serveClients, len(names), func(i int) {
		r, err := ref.GetBudget(ctx, names[i], fusion.ModeHelios, insts)
		if err != nil {
			fail(err)
			return
		}
		d := statsDigest(&r.Stats)
		mu.Lock()
		want[names[i]] = d
		mu.Unlock()
	})
	for _, w := range obsServe {
		for _, k := range obsKinds {
			ob, ws := observer(k)
			r, err := ref.ObserveReplayConfig(ctx, w, ooo.DefaultConfig(fusion.ModeHelios), insts/obsDiv, ob)
			if err != nil {
				return err
			}
			obsWant[w+"/"+k] = [2]string{statsDigest(&r.Stats), ws[k].sum()}
		}
	}
	ok := make([]bool, len(replies))
	parallel(serveClients, len(replies), func(i int) {
		rep := &replies[i]
		if rep.status != http.StatusOK {
			return
		}
		switch rep.spec.kind {
		case kindHit:
			ok[i] = rep.cached && rep.stats == want[rep.spec.run.Workload]
		case kindMiss:
			r, err := ref.ReplayConfig(ctx, rep.spec.run.Workload, *rep.spec.run.Config, rep.spec.run.Insts)
			if err != nil {
				fail(err)
				return
			}
			ok[i] = !rep.cached && rep.stats == statsDigest(&r.Stats)
		case kindObs:
			w := obsWant[rep.spec.run.Workload+"/"+rep.spec.run.Obs]
			ok[i] = rep.stats == w[0] && rep.art == w[1]
		}
	})
	if firstErr != nil {
		return firstErr
	}
	for _, good := range ok {
		res.Attempted++
		if !good {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return nil
}

// latencies returns the client latencies of the replies of one kind.
func latencies(replies []reply, k reqKind) []float64 {
	var out []float64
	for _, r := range replies {
		if r.spec.kind == k {
			out = append(out, r.ms)
		}
	}
	return out
}

// runServeMix is the serve-mix workload: two closed-loop clients against
// an in-process heliosd. Set-up warms the hot set; the measured phase
// mixes cache hits on it with misses (fresh machine configs over the
// warm recordings) and inline obs artifacts.
func runServeMix(ctx context.Context, p params, _ *goldens, sp *spans) (*result, error) {
	insts := p.Insts
	if insts == 0 {
		insts = serveInsts
	}
	setupS, svc, err := repeatSetup(serveSetups, func() (*service, error) {
		s := newService(true)
		if err := s.warm(insts); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*service).close)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	gen := newMixGen(p.Seed, insts)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ref := core.NewSuite(insts)
	if p.Trace {
		return res, traceServeMix(ctx, svc, gen, ref, insts, sp, res)
	}

	// An operation is one request; the unit of work is one block of the
	// mix, whose wall is its share of the measured phase.
	replies, wall := svc.closedLoop(gen.next, deadline(p.Seconds), 0, nil)
	var ops []float64
	for _, r := range replies {
		ops = append(ops, r.ms/1e3)
	}
	mt := res.Metrics
	putEndToEnd(mt, setupS, wall*mixBlock/float64(len(replies)), ops)
	if err := verify(ctx, ref, insts, replies, res); err != nil {
		return nil, err
	}
	mt["serve_rps"] = metric{float64(len(replies)-res.Failed) / wall, "1/s"}
	hits, misses := latencies(replies, kindHit), latencies(replies, kindMiss)
	mt["hit_p50_ms"] = metric{percentile(hits, 50), "ms"}
	mt["hit_p90_ms"] = metric{percentile(hits, 90), "ms"}
	mt["miss_p50_ms"] = metric{percentile(misses, 50), "ms"}
	mt["miss_p90_ms"] = metric{percentile(misses, 90), "ms"}
	mt["obs_p50_ms"] = metric{percentile(latencies(replies, kindObs), 50), "ms"}
	return res, nil
}

// handle calls the handler directly on a recorder, with no network.
func handle(h http.Handler, run serve.RunRequest) (*httptest.ResponseRecorder, float64) {
	body, _ := json.Marshal(run) // RunRequest is plain data
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, seconds(t0)
}

// traceProbes is how many calls each traced hit probe makes.
const traceProbes = 400

// traceList is how many mix requests the tracing-overhead comparison
// sends per turn, and traceTurns how many turns it takes. Two blocks
// hold one obs request of each kind.
const (
	traceList  = 2 * mixBlock
	traceTurns = 8
)

// traceServeMix is the traced serve-mix run. It sends one fixed list of
// mix requests in turns, untraced and traced, then probes each layer
// from outside: the handler with no network, the transport, telemetry
// on against off, and misses and obs requests against direct Suite
// calls.
func traceServeMix(ctx context.Context, svc *service, gen *mixGen, ref *core.Suite, insts uint64, sp *spans, res *result) error {
	// The hot set's recordings, made again on the reference suite (which
	// verify then reuses), and the emulator alone over the same budgets.
	mt := res.Metrics
	names := workloads.Names()
	recordS, recorded, err := recordAll(ctx, ref, names, sp)
	if err != nil {
		return err
	}
	putRecording(mt, recordS, recorded)
	mips, err := emuMIPS(names, insts, sp)
	if err != nil {
		return err
	}
	mt["emu.mips"] = metric{mips, "Minst/s"}

	far := time.Now().Add(time.Hour)
	list := make([]reqSpec, traceList)
	for i := range list {
		list[i] = gen.next()
	}
	var walls [2][]float64
	var all, traced []reply
	for i := 0; i < traceTurns; i++ {
		side, s := 0, (*spans)(nil)
		if tracedTurn(i) {
			side, s = 1, sp
		}
		var k atomic.Int64
		next := func() reqSpec { return gen.again(list[k.Add(1)-1]) }
		replies, wall := svc.closedLoop(next, far, len(list), s)
		walls[side] = append(walls[side], wall)
		all = append(all, replies...)
		if s != nil {
			traced = append(traced, replies...)
		}
	}
	if err := verify(ctx, ref, insts, all, res); err != nil {
		return err
	}
	mt["trace_overhead_s"] = metric{median(walls[1]) - median(walls[0]), "s"}
	var hits, runs float64
	for _, r := range traced {
		if r.spec.kind != kindObs {
			runs++
			if r.cached {
				hits++
			}
		}
	}
	mt["serve.cache_hit_ratio"] = metric{hits / runs, "ratio"}

	// Each probe call is one more operation; a wrong reply fails it.
	attempts, fails := 0, 0
	check := func(ok bool) {
		attempts++
		if !ok {
			fails++
		}
	}
	h := svc.srv.Handler()
	hot := func(i int) serve.RunRequest {
		return serve.RunRequest{Workload: names[i%len(names)], Mode: fusion.ModeHelios.String(), Insts: insts}
	}
	var sizes []float64
	for i := 0; i < traceProbes; i++ {
		id := sp.start("serve.handler", "hit", 0)
		rec, _ := handle(h, hot(i))
		sp.end(id)
		check(rec.Code == http.StatusOK)
		sizes = append(sizes, float64(rec.Body.Len()))
		id = sp.start("serve.client", "hit", 0)
		rep, _ := svc.post(reqSpec{kind: kindHit, run: hot(i)})
		sp.end(id)
		check(rep.status == http.StatusOK)
	}
	handlerHit := median(sp.durations("serve.handler", "hit"))
	mt["serve.handler_hit_us"] = metric{handlerHit * 1e6, "us"}
	mt["serve.transport_hit_us"] = metric{(median(sp.durations("serve.client", "hit")) - handlerHit) * 1e6, "us"}
	mt["serve.hit_resp_bytes"] = metric{median(sizes), "B"}

	// Telemetry on against off: the same hot keys on a second server
	// with tracing disabled, calls alternating between the two.
	off := newService(false)
	defer off.close()
	hOff := off.srv.Handler()
	for i := range names {
		rec, _ := handle(hOff, hot(i))
		check(rec.Code == http.StatusOK)
	}
	var on, offs []float64
	for i := 0; i < traceProbes; i++ {
		_, d := handle(h, hot(i))
		on = append(on, d)
		_, d = handle(hOff, hot(i))
		offs = append(offs, d)
	}
	mt["telemetry.hit_overhead_us"] = metric{(median(on) - median(offs)) * 1e6, "us"}

	// Misses: the handler against a direct ReplayConfig of the same key,
	// the two in alternating order so neither always runs second. The
	// direct replays are the run's ooo metrics.
	var direct, overhead []float64
	var cycles uint64
	for i := 0; i < 4*len(missWorkloads); i++ {
		spec := gen.next()
		for spec.kind != kindMiss {
			spec = gen.next()
		}
		var rec *httptest.ResponseRecorder
		var dh, dd float64
		var r *core.Result
		var err error
		viaHandler := func() {
			id := sp.start("serve.handler", "miss", 0)
			rec, dh = handle(h, spec.run)
			sp.end(id)
		}
		viaSuite := func() {
			id := sp.start("core.replay_config", spec.run.Workload, 0)
			t0 := time.Now()
			r, err = svc.srv.Suite().ReplayConfig(ctx, spec.run.Workload, *spec.run.Config, insts)
			dd = seconds(t0)
			sp.end(id)
		}
		if i%2 == 0 {
			viaHandler()
			viaSuite()
		} else {
			viaSuite()
			viaHandler()
		}
		if err != nil {
			return err
		}
		rep := reply{spec: spec, status: rec.Code}
		rep.decode(rec.Body.Bytes())
		check(rep.status == http.StatusOK && !rep.cached && rep.stats == statsDigest(&r.Stats))
		direct = append(direct, dd)
		overhead = append(overhead, dh-dd)
		cycles += r.Stats.Cycles
	}
	var replayS float64
	for _, d := range direct {
		replayS += d
	}
	putReplay(mt, replayS, cycles)
	mt["core.replay_config_ms"] = metric{median(direct) * 1e3, "ms"}
	mt["serve.miss_overhead_ms"] = metric{median(overhead) * 1e3, "ms"}

	// Obs: the handler against a direct ObserveReplayConfig.
	var encode []float64
	for _, w := range obsServe {
		for _, k := range obsKinds {
			run := serve.RunRequest{Workload: w, Mode: fusion.ModeHelios.String(), Insts: insts / obsDiv, Obs: k}
			id := sp.start("serve.handler", "obs", 0)
			rec, dh := handle(h, run)
			sp.end(id)
			ob, ws := observer(k)
			id = sp.start("core.observe_replay", w+"/"+k, 0)
			t0 := time.Now()
			_, err := svc.srv.Suite().ObserveReplayConfig(ctx, w, ooo.DefaultConfig(fusion.ModeHelios), run.Insts, ob)
			dd := seconds(t0)
			sp.end(id)
			if err != nil {
				return err
			}
			rep := reply{status: rec.Code}
			rep.decode(rec.Body.Bytes())
			check(rep.status == http.StatusOK && rep.art == ws[k].sum())
			encode = append(encode, dh-dd)
		}
	}
	mt["serve.obs_encode_ms"] = metric{median(encode) * 1e3, "ms"}

	m := svc.srv.Suite().Metrics()
	putCounters(mt, m)
	mt["core.deduped_runs"] = metric{float64(m.DedupedRuns), "count"}
	res.Attempted += attempts
	res.Failed += fails
	res.Correct = res.Failed == 0
	return nil
}

package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ServiceVerdict classifies one request outcome against the service
// failure contract (DESIGN.md §14): every response a client receives is
// either a valid result or a typed, machine-readable error — never a
// panic, a hang, or an unclassifiable failure.
type ServiceVerdict int

const (
	// ServiceClean: a well-formed successful result.
	ServiceClean ServiceVerdict = iota
	// ServiceTypedError: a machine-readable typed error (overload,
	// deadline, bad request, engine fault, ...).
	ServiceTypedError
	// ServiceViolation: anything else — an untyped failure, a response
	// that parses as neither result nor typed error, a panic, a hang.
	ServiceViolation
)

// ServiceCampaign is the server-level fault campaign driver: `clients`
// concurrent clients each issue `perClient` requests through `do`,
// which performs one request (hostile or benign — the caller arms the
// faults) and classifies the outcome. The driver supplies the contract
// enforcement around it: a panic inside `do` is recovered and reported
// as a violation, and a call that exceeds `timeout` is reported as a
// hung request — the one failure a server must never produce, because a
// client cannot distinguish it from a dead service.
//
// Outcomes aggregate into the same Report as the stream/file/pipeline
// campaigns: Runs == Clean + TypedErrors with empty Violations is the
// passing contract.
func ServiceCampaign(ctx context.Context, clients, perClient int, timeout time.Duration,
	do func(ctx context.Context, client, seq int) (ServiceVerdict, string)) Report {
	var (
		mu  sync.Mutex
		rep Report
	)
	note := func(v ServiceVerdict, detail string, client, seq int) {
		mu.Lock()
		defer mu.Unlock()
		rep.Runs++
		switch v {
		case ServiceClean:
			rep.Clean++
		case ServiceTypedError:
			rep.TypedErrors++
		default:
			rep.violation("client %d seq %d: %s", client, seq, detail)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if ctx.Err() != nil {
					return
				}
				v, detail := watchdogCall(ctx, timeout, c, i, do)
				note(v, detail, c, i)
			}
		}(c)
	}
	wg.Wait()
	return rep
}

// AuditedServiceCampaign is ServiceCampaign plus a post-campaign audit
// hook: after every client finishes, `audit` inspects whatever
// cross-request invariants the caller cares about and returns one error
// per violation, each folded into Report.Violations. heliosd's soak
// audits the telemetry span-balance contract this way — every span
// started during the campaign (including under panic, deadline and
// drain paths) must have ended exactly once by the time the audit runs.
func AuditedServiceCampaign(ctx context.Context, clients, perClient int, timeout time.Duration,
	do func(ctx context.Context, client, seq int) (ServiceVerdict, string),
	audit func() []error) Report {
	rep := ServiceCampaign(ctx, clients, perClient, timeout, do)
	if audit != nil {
		for _, err := range audit() {
			if err != nil {
				rep.violation("post-campaign audit: %v", err)
			}
		}
	}
	return rep
}

// Audits combines independent audit hooks into the single function
// AuditedServiceCampaign accepts, preserving hook order and flattening
// their findings. Nil hooks are skipped, so call sites can list
// conditionally-armed audits without branching:
//
//	chaos.AuditedServiceCampaign(ctx, clients, n, timeout, do,
//	    chaos.Audits(balanceAudit, samplingAudit, flightAudit))
func Audits(hooks ...func() []error) func() []error {
	return func() []error {
		var errs []error
		for _, hook := range hooks {
			if hook == nil {
				continue
			}
			errs = append(errs, hook()...)
		}
		return errs
	}
}

// watchdogCall runs one `do` invocation under a panic recovery and a
// hang watchdog. On timeout the request goroutine is abandoned (its
// context is cancelled, and its eventual result is discarded) — exactly
// what a real client does to a hung server.
func watchdogCall(ctx context.Context, timeout time.Duration, client, seq int,
	do func(ctx context.Context, client, seq int) (ServiceVerdict, string)) (ServiceVerdict, string) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v      ServiceVerdict
		detail string
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{ServiceViolation, fmt.Sprintf("request panicked: %v", r)}
			}
		}()
		v, d := do(cctx, client, seq)
		done <- outcome{v, d}
	}()
	select {
	case o := <-done:
		return o.v, o.detail
	case <-time.After(timeout):
		return ServiceViolation, fmt.Sprintf("hung request (no response in %v)", timeout)
	}
}

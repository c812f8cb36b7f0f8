package chaos

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestServiceCampaignClassification drives the campaign with a `do`
// that produces every outcome class and checks the contract arithmetic:
// Runs == Clean + TypedErrors + len(Violations), panics are recovered
// into violations, and hangs are caught by the watchdog.
func TestServiceCampaignClassification(t *testing.T) {
	rep := ServiceCampaign(context.Background(), 4, 5, 200*time.Millisecond,
		func(ctx context.Context, client, seq int) (ServiceVerdict, string) {
			switch seq {
			case 0:
				return ServiceClean, ""
			case 1:
				return ServiceTypedError, ""
			case 2:
				panic("handler exploded")
			case 3:
				<-ctx.Done() // hang until the watchdog gives up
				return ServiceClean, ""
			default:
				return ServiceViolation, "untyped failure"
			}
		})
	if rep.Runs != 20 {
		t.Fatalf("Runs = %d, want 20", rep.Runs)
	}
	if rep.Clean != 4 || rep.TypedErrors != 4 {
		t.Errorf("Clean/TypedErrors = %d/%d, want 4/4", rep.Clean, rep.TypedErrors)
	}
	if len(rep.Violations) != 12 {
		t.Fatalf("Violations = %d, want 12:\n%s", len(rep.Violations), strings.Join(rep.Violations, "\n"))
	}
	var panics, hangs int
	for _, v := range rep.Violations {
		if strings.Contains(v, "panicked") {
			panics++
		}
		if strings.Contains(v, "hung request") {
			hangs++
		}
	}
	if panics != 4 || hangs != 4 {
		t.Errorf("panic/hang violations = %d/%d, want 4/4", panics, hangs)
	}
}

// Trial classification for reliability campaigns: map one core.Run
// outcome (result + error) onto the four-way taxonomy the paper's
// coverage statistics are computed over. Classification is purely a
// function of the Result: the failure class core.Run set and the
// model-plane ledger accounting — no message parsing — so it is stable
// across error-text changes and identical on every campaign plane.

package reliability

import (
	"fmt"

	"abftchol/internal/core"
)

// Outcome is the four-way verdict of one fault-injection trial.
type Outcome int

const (
	// OutcomeClean: no fault fired in the trial window and the run
	// finished normally. Clean trials calibrate the pipeline (any
	// other verdict on a clean trial is a campaign bug) but are
	// excluded from struck-conditioned rates.
	OutcomeClean Outcome = iota
	// OutcomeDetectedCorrected: every injected fault was detected by
	// the scheme's checksum discipline and repaired in place; the run
	// finished with a verified factor.
	OutcomeDetectedCorrected
	// OutcomeDetectedUncorrectable: the scheme detected corruption but
	// could not repair it — more simultaneous errors than the checksum
	// code corrects, or a POTF2 fail-stop. With MaxAttempts=1 the run
	// aborts here; detection worked, correction did not.
	OutcomeDetectedUncorrectable
	// OutcomeSilentCorruption: a fault fired and the scheme's online
	// protocol never caught it. For FT schemes this surfaces as the
	// end-of-run audit rejecting the factor (detection came only from
	// the final acceptance test, not the scheme); for unprotected
	// schemes the corrupted factor is simply returned as if correct.
	OutcomeSilentCorruption
)

// outcomeKeys are the stable journal/report spellings.
var outcomeKeys = map[Outcome]string{
	OutcomeClean:                 "clean",
	OutcomeDetectedCorrected:     "detected-corrected",
	OutcomeDetectedUncorrectable: "detected-uncorrectable",
	OutcomeSilentCorruption:      "silent-corruption",
}

func (o Outcome) String() string {
	if k, ok := outcomeKeys[o]; ok {
		return k
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Outcomes lists all verdicts in canonical report order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeClean, OutcomeDetectedCorrected, OutcomeDetectedUncorrectable, OutcomeSilentCorruption}
}

// Struck reports whether the verdict implies at least one injected
// fault (everything but clean).
func (o Outcome) Struck() bool { return o != OutcomeClean }

// Describe returns the one-line definition used in generated docs.
func (o Outcome) Describe() string {
	switch o {
	case OutcomeClean:
		return "no fault fired in the trial window; run finished normally"
	case OutcomeDetectedCorrected:
		return "all injected faults detected by the scheme and repaired in place"
	case OutcomeDetectedUncorrectable:
		return "corruption detected but beyond the checksum code's correction capability (or a POTF2 fail-stop)"
	case OutcomeSilentCorruption:
		return "a fault escaped the scheme's online protocol — caught only by the end-of-run audit, or not at all"
	}
	return ""
}

// Classify maps one single-attempt trial (core.Run with MaxAttempts=1)
// onto the taxonomy; a failed trial is filed by res.Failure, the class
// core.Run set where the run ended. It returns an error only for outcomes a campaign
// trial cannot legitimately produce — an option-validation failure, or
// a multi-attempt run, both of which mean the campaign was misplanned
// rather than the trial went badly.
func Classify(res core.Result, runErr error) (Outcome, error) {
	if res.Attempts > 1 {
		return 0, fmt.Errorf("reliability: trial ran %d attempts; campaigns classify single attempts only", res.Attempts)
	}
	struck := len(res.Injections) > 0
	if runErr != nil {
		switch res.Failure {
		case core.FailureRejected:
			// The scheme finished but the final audit found corruption
			// the online protocol missed: the defining silent-error
			// escape (Online's storage-fault gap in the paper).
			return OutcomeSilentCorruption, nil
		case core.FailureUncorrectable, core.FailureFailStop:
			return OutcomeDetectedUncorrectable, nil
		default:
			return 0, fmt.Errorf("reliability: trial failed outside the fault taxonomy: %w", runErr)
		}
	}
	if !struck {
		return OutcomeClean, nil
	}
	if res.Corrections > 0 {
		return OutcomeDetectedCorrected, nil
	}
	// Struck, finished, nothing corrected: only non-FT schemes get
	// here (an FT scheme with pending corruption is rejected above),
	// and for them the corrupted factor shipped silently.
	return OutcomeSilentCorruption, nil
}

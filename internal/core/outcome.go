// Failure classes: how a protected run ended when it did not finish
// clean. Run records the class where the failure is made and returns it
// as Result.Failure, so a classifier reads a field instead of
// inspecting the error chain.

package core

import (
	"fmt"
	"strings"
)

// Failure is the class of a failed run's last attempt; FailureNone
// when the run succeeded or failed outside the fault taxonomy (an
// options error).
type Failure uint8

const (
	// FailureNone: no classified failure.
	FailureNone Failure = iota
	// FailureRejected: a fault-tolerant scheme finished the
	// factorization but the model-plane ledger still records corrupted
	// blocks, i.e. detection happened too late for correction.
	// Campaigns count a run that ends here as silent corruption *of the
	// factorization output* caught only by the offline audit.
	FailureRejected
	// FailureUncorrectable: verification detected corruption beyond the
	// checksum code's correction capability (more than ⌊m/2⌋ errors in
	// one block column, or an inconsistent syndrome).
	FailureUncorrectable
	// FailureFailStop: POTF2 found a diagonal block that lost positive
	// definiteness, which the paper treats as an immediately detected,
	// non-correctable abort.
	FailureFailStop
)

// Code returns the class's wire spelling, "" for FailureNone. The abftd
// daemon serves a failed job's class as this code (JobInfo.ErrorCode);
// the spellings are part of the HTTP API and must stay stable.
func (f Failure) Code() string {
	switch f {
	case FailureRejected:
		return "result_rejected"
	case FailureUncorrectable:
		return "uncorrectable"
	case FailureFailStop:
		return "fail_stop"
	}
	return ""
}

// ParseScheme resolves the external spelling of a fault-tolerance
// scheme — the same words the CLI -scheme flag and the abftd job API
// accept.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(s) {
	case "magma", "none":
		return SchemeNone, nil
	case "cula":
		return SchemeCULA, nil
	case "offline":
		return SchemeOffline, nil
	case "online":
		return SchemeOnline, nil
	case "enhanced":
		return SchemeEnhanced, nil
	case "scrub", "online+scrub":
		return SchemeOnlineScrub, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// schemeKeys is the canonical external spelling of each scheme.
var schemeKeys = map[Scheme]string{
	SchemeNone:        "magma",
	SchemeCULA:        "cula",
	SchemeOffline:     "offline",
	SchemeOnline:      "online",
	SchemeEnhanced:    "enhanced",
	SchemeOnlineScrub: "scrub",
}

// SchemeKey returns the external spelling of a scheme, the inverse of
// ParseScheme.
func SchemeKey(s Scheme) string {
	if k, ok := schemeKeys[s]; ok {
		return k
	}
	return s.String()
}

package sim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrBadConfig is the sentinel every configuration error matches via
// errors.Is. The concrete error is always a *ConfigError carrying one
// entry per invalid field, so a caller that misconfigures three fields
// learns about all three at once instead of playing whack-a-mole.
var ErrBadConfig = errors.New("sim: bad configuration")

// FieldError names one invalid configuration field and why it is invalid.
type FieldError struct {
	// Field is the Config field name ("Cores", "Threads", …) or the
	// pseudo-field "Streams" for a stream-count/thread-count mismatch.
	Field string
	// Reason is a human-readable description of the violation.
	Reason string
}

func (f FieldError) String() string { return f.Field + ": " + f.Reason }

// ConfigError reports every invalid field of a Config at once. It matches
// ErrBadConfig under errors.Is.
type ConfigError struct {
	Fields []FieldError
}

// Error implements error, listing every invalid field.
func (e *ConfigError) Error() string {
	var b strings.Builder
	b.WriteString("sim: bad configuration: ")
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// Is reports a match against the ErrBadConfig sentinel.
func (e *ConfigError) Is(target error) bool { return target == ErrBadConfig }

// applyDefaults fills zero-valued fields with the documented defaults.
func (cfg *Config) applyDefaults() {
	if cfg.Threads == 0 {
		cfg.Threads = cfg.Spec.TotalCores()
	}
	if cfg.Cores == 0 {
		cfg.Cores = cfg.Spec.TotalCores()
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 50000
	}
	if cfg.CancelEvery == 0 {
		cfg.CancelEvery = DefaultCancelEvery
	}
}

// validate checks the (defaulted) Config against the nStreams trace
// streams the caller supplied and collects every violation.
func (cfg *Config) validate(nStreams int) error {
	var fields []FieldError
	total := cfg.Spec.TotalCores()
	if total < 1 {
		fields = append(fields, FieldError{"Spec", "machine has no cores"})
	}
	if cfg.Threads < 1 {
		fields = append(fields, FieldError{"Threads", fmt.Sprintf("%d, want >= 1", cfg.Threads)})
	}
	if cfg.Cores < 1 || (total >= 1 && cfg.Cores > total) {
		fields = append(fields, FieldError{"Cores", fmt.Sprintf("%d out of range 1..%d", cfg.Cores, total)})
	}
	if cfg.Placement > Interleave {
		fields = append(fields, FieldError{"Placement", fmt.Sprintf("unknown policy %d", cfg.Placement)})
	}
	if nStreams != cfg.Threads {
		fields = append(fields, FieldError{"Streams", fmt.Sprintf("%d streams for %d threads", nStreams, cfg.Threads)})
	}
	if fields == nil {
		return nil
	}
	return &ConfigError{Fields: fields}
}

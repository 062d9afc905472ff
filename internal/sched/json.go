package sched

import (
	"encoding/json"
	"fmt"
	"io"
)

// File is the on-disk JSON envelope understood by the cmd tools. Exactly
// one of Instance or Multi must be set.
type File struct {
	// Kind is "one-interval" or "multi-interval".
	Kind string `json:"kind"`
	// Alpha is the wake-up transition cost for power objectives.
	Alpha float64 `json:"alpha,omitempty"`
	// Instance holds a one-interval (possibly multiprocessor) instance.
	Instance *Instance `json:"instance,omitempty"`
	// Multi holds a single-machine multi-interval instance.
	Multi *MultiInstance `json:"multi,omitempty"`
}

// KindOneInterval and KindMultiInterval are the accepted File kinds.
const (
	KindOneInterval   = "one-interval"
	KindMultiInterval = "multi-interval"
)

// WriteJSON encodes the file as indented JSON.
func (f File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON decodes and validates a File.
func ReadJSON(r io.Reader) (File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("sched: decoding instance file: %w", err)
	}
	switch f.Kind {
	case KindOneInterval:
		if f.Instance == nil {
			return File{}, fmt.Errorf("sched: kind %q requires field \"instance\"", f.Kind)
		}
		if err := f.Instance.Validate(); err != nil {
			return File{}, err
		}
	case KindMultiInterval:
		if f.Multi == nil {
			return File{}, fmt.Errorf("sched: kind %q requires field \"multi\"", f.Kind)
		}
		if err := f.Multi.Validate(); err != nil {
			return File{}, err
		}
	default:
		return File{}, fmt.Errorf("sched: unknown instance kind %q", f.Kind)
	}
	if !ValidAlpha(f.Alpha) {
		return File{}, fmt.Errorf("sched: alpha %v is outside [0, 2^53]", f.Alpha)
	}
	return f, nil
}

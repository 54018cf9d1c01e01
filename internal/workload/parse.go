// Spec parsing: a GuideLLM-style declarative file in JSON, decoded by
// encoding/json into the tagged Spec types. Unknown keys are rejected so
// a typo in a spec fails loudly instead of silently meaning "default";
// durations are time.ParseDuration strings ("400us", "2m").
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LoadSpec reads and parses a JSON spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ParseSpec decodes one JSON spec object, validates it, and applies
// defaults. Every failure wraps ErrSpec.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Spec{}
	if err := dec.Decode(s); err != nil {
		return nil, specErr("json: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, specErr("json: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

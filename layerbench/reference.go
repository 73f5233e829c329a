package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/serve"
)

// referenceJSON holds, per (program, config, view), digests of the
// unsalted request's outcome: its text and, where the path runs the
// program, the program's own stdout. Regenerate with -write-reference.
//
//go:embed reference.json
var referenceJSON []byte

type refEntry struct {
	Text   string `json:"text_sha256"`
	Output string `json:"output_sha256,omitempty"`
}

// reference maps a refKey to the expected digests.
type reference map[string]refEntry

func loadReference(b []byte) (reference, error) {
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return ref, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// refKey names one (program, config, view) entry, e.g. "lulesh|data".
func refKey(p program, view string) string { return p.key + "|" + view }

// check compares one response against its reference entry. Every salt
// is a trailing comment, so a correct salted response has exactly the
// unsalted digests.
func (ref reference) check(key, text, output string) error {
	return ref.checkDigests(key, digest(text), digest(output))
}

// checkDigests is check for a response known by its digests.
func (ref reference) checkDigests(key, text, output string) error {
	want, ok := ref[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference entry", key)
	case text != want.Text:
		return fmt.Errorf("%s: text differs from the reference", key)
	case want.Output != "" && output != want.Output:
		return fmt.Errorf("%s: program output differs from the reference", key)
	}
	return nil
}

// writeReference runs every (program, view) the workloads request,
// unsalted, through serve.Execute and writes the digests to path.
func writeReference(path string) error {
	ref := reference{}
	add := func(p program, view string, lint bool) error {
		r, err := p.resolve()
		if err != nil {
			return err
		}
		req, err := r.request("", view, lint)
		if err != nil {
			return err
		}
		out, err := serve.Execute(req, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", refKey(p, viewLabel(view, lint)), err)
		}
		e := refEntry{Text: digest(out.Text)}
		if view != "static" {
			e.Output = digest(out.Output)
		}
		ref[refKey(p, viewLabel(view, lint))] = e
		return nil
	}
	for _, p := range casePrograms {
		if err := add(p, "data", false); err != nil {
			return err
		}
		if err := add(p, "static", true); err != nil {
			return err
		}
	}
	for _, p := range servePrograms {
		for _, v := range sessionViews[:4] {
			if err := add(p, v, false); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// viewLabel is the reference key's view part: the view, plus "+lint"
// for lint requests.
func viewLabel(view string, lint bool) string {
	if lint {
		return view + "+lint"
	}
	return view
}

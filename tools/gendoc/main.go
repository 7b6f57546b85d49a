// Command gendoc rewrites the generated sections of one document from
// the live code:
//
//	gendoc linting        docs/LINTING.md: the analyzer table (tools/analyzers.Suite)
//	gendoc observability  docs/OBSERVABILITY.md: the metrics catalog (internal/obs.Catalog)
//	gendoc service        docs/SERVICE.md: the endpoint and error-code tables, and a
//	                      real HTTP session recorded against an in-process daemon
//	                      under a frozen clock (server.DocSession)
//	gendoc reliability    docs/RELIABILITY.md: the fault-class and trial-outcome
//	                      taxonomies, and a sample campaign executed in process
//	                      (campaign.DocSample)
//
// Each target is wired to a `go generate` line in the package that
// owns its content, and TestDocsCurrent fails on any doc that differs
// from its rewrite, so a stale doc fails `go test` rather than rotting
// silently. Paths are resolved from the module root, so the command
// runs from any directory inside the module.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"abftchol/internal/obs"
	"abftchol/internal/reliability/campaign"
	"abftchol/internal/server"
	"abftchol/tools/analyzers"
)

// section is one generated span: everything between begin and end is
// replaced by body.
type section struct{ begin, end, body string }

// target is one document and the sections the live code renders into
// it.
type target struct {
	doc      string // path from the module root
	sections func() ([]section, error)
}

var targets = map[string]target{
	"linting": {"docs/LINTING.md", func() ([]section, error) {
		return []section{{analyzers.TableBegin, analyzers.TableEnd, analyzers.AnalyzerTable()}}, nil
	}},
	"observability": {"docs/OBSERVABILITY.md", func() ([]section, error) {
		return []section{{obs.TableBegin, obs.TableEnd, obs.CatalogTable()}}, nil
	}},
	"service": {"docs/SERVICE.md", func() ([]section, error) {
		session, err := server.DocSession()
		if err != nil {
			return nil, fmt.Errorf("record session: %w", err)
		}
		return []section{
			{server.EndpointsBegin, server.EndpointsEnd, server.EndpointsTable()},
			{server.ErrorsBegin, server.ErrorsEnd, server.ErrorsTable()},
			{server.JobErrorsBegin, server.JobErrorsEnd, server.JobErrorsTable()},
			{server.SessionBegin, server.SessionEnd, session},
		}, nil
	}},
	"reliability": {"docs/RELIABILITY.md", func() ([]section, error) {
		sample, err := campaign.DocSample()
		if err != nil {
			return nil, fmt.Errorf("record sample campaign: %w", err)
		}
		return []section{
			{campaign.ClassesBegin, campaign.ClassesEnd, campaign.ClassesTable()},
			{campaign.OutcomesBegin, campaign.OutcomesEnd, campaign.OutcomesTable()},
			{campaign.SampleBegin, campaign.SampleEnd, sample},
		}, nil
	}},
}

func main() {
	var t target
	ok := len(os.Args) == 2
	if ok {
		t, ok = targets[os.Args[1]]
	}
	if !ok {
		names := make([]string, 0, len(targets))
		for name := range targets {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: gendoc <%s>\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	if err := rewrite(t); err != nil {
		fmt.Fprintln(os.Stderr, "gendoc:", err)
		os.Exit(1)
	}
}

func rewrite(t target) error {
	path, _, want, err := render(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(want), 0o644)
}

// render returns the path of t's document, its bytes on disk, and its
// bytes with every generated section re-rendered from the live code.
func render(t target) (path, have, want string, err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", "", "", err
	}
	path = filepath.Join(root, t.doc)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", "", err
	}
	secs, err := t.sections()
	if err != nil {
		return "", "", "", err
	}
	have, want = string(data), string(data)
	for _, sec := range secs {
		if want, err = replaceSection(want, sec); err != nil {
			return "", "", "", fmt.Errorf("%s: %w", path, err)
		}
	}
	return path, have, want, nil
}

// replaceSection swaps the body between one pair of marker comments.
func replaceSection(src string, s section) (string, error) {
	b := strings.Index(src, s.begin)
	e := strings.Index(src, s.end)
	if b < 0 || e < 0 || e < b {
		return "", fmt.Errorf("marker comments %q ... %q not found; the generated section needs a home", s.begin, s.end)
	}
	return src[:b] + s.begin + "\n" + s.body + src[e:], nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

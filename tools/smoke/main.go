// Command smoke runs the scripted end-to-end checks behind `make
// serve-smoke` and `make campaign-smoke`:
//
//	go run ./tools/smoke serve     # the job daemon session (docs/SERVICE.md)
//	go run ./tools/smoke campaign  # campaign kill-and-resume (docs/RELIABILITY.md)
//
// Each session builds the binary it drives into a temp dir, logs every
// step and every `ok`/`FAIL` expectation to artifacts/<session>-smoke.txt
// (CI uploads it), and exits nonzero on any failed expectation.
package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
)

var sessions = map[string]func(*smoke) error{
	"serve":    (*smoke).serve,
	"campaign": (*smoke).campaign,
}

// smoke carries the session state: the transcript writer, the temp
// work dir, and the failure count.
type smoke struct {
	out    io.Writer
	work   string
	failed int
}

func (s *smoke) logf(format string, args ...interface{}) {
	fmt.Fprintf(s.out, format+"\n", args...)
}

func (s *smoke) check(ok bool, what string, detail ...interface{}) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		s.failed++
	}
	s.logf(mark+" "+what, detail...)
}

// build compiles the command at pkg into the work dir and returns the
// binary's path.
func (s *smoke) build(pkg string) (string, error) {
	bin := filepath.Join(s.work, path.Base(pkg))
	s.logf("$ go build -o %s %s", bin, pkg)
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		return "", fmt.Errorf("build %s: %v\n%s", path.Base(pkg), err, out)
	}
	return bin, nil
}

func main() {
	run, ok := sessions[os.Args[len(os.Args)-1]]
	if len(os.Args) != 2 || !ok {
		fmt.Fprintln(os.Stderr, "usage: smoke <serve|campaign>")
		os.Exit(2)
	}
	if err := session(os.Args[1]+"-smoke", run); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(1)
	}
}

// session runs one smoke session in a fresh temp work dir with its
// output teed to artifacts/<name>.txt, and fails when any expectation
// did.
func session(name string, run func(*smoke) error) error {
	if err := os.MkdirAll("artifacts", 0o755); err != nil {
		return err
	}
	transcript, err := os.Create(filepath.Join("artifacts", name+".txt"))
	if err != nil {
		return err
	}
	defer transcript.Close()
	work, err := os.MkdirTemp("", name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	s := &smoke{out: io.MultiWriter(os.Stdout, transcript), work: work}

	if err := run(s); err != nil {
		s.logf("FAIL %v", err)
		s.failed++
	}
	if s.failed > 0 {
		s.logf("%s: %d failure(s)", name, s.failed)
		return fmt.Errorf("%s: %d failure(s)", name, s.failed)
	}
	s.logf("%s: PASS", name)
	return nil
}

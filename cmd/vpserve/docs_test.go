package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"videoplat/internal/pipeline"
	"videoplat/internal/server"
)

// These tests pin docs/OPERATIONS.md to the code it documents: the
// registered vpserve flag set, the operations API route table and the
// /metrics registry. Adding a flag, endpoint or metric without documenting
// it — or documenting one that no longer exists — fails CI, and the
// metrics table must equal the one rendered from the registry.

func operationsDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading runbook: %v", err)
	}
	return string(doc)
}

func TestOperationsDocCoversFlags(t *testing.T) {
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	registerFlags(fs)
	doc := operationsDoc(t)

	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f.Name) + "`").MatchString(doc) {
			t.Errorf("flag -%s is not documented in docs/OPERATIONS.md (add a `-%s` table row)", f.Name, f.Name)
		}
	})
	if len(registered) == 0 {
		t.Fatal("no flags registered")
	}

	// The reverse direction: every `-flag` the runbook mentions must still
	// exist, so renames and removals can't leave stale documentation.
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/OPERATIONS.md documents `-%s`, which is not a registered vpserve flag", m[1])
		}
	}
}

func TestOperationsDocCoversEndpoints(t *testing.T) {
	doc := operationsDoc(t)
	endpoints := server.Endpoints()
	if len(endpoints) == 0 {
		t.Fatal("no endpoints registered")
	}
	for _, pattern := range endpoints {
		if !regexp.MustCompile("`" + regexp.QuoteMeta(pattern) + "`").MatchString(doc) {
			t.Errorf("endpoint %q is not documented in docs/OPERATIONS.md (add a `%s` section)", pattern, pattern)
		}
	}
}

func TestOperationsDocCoversVerdicts(t *testing.T) {
	doc := operationsDoc(t)
	start := strings.Index(doc, "## Flow verdicts")
	if start < 0 {
		t.Fatal("docs/OPERATIONS.md has no \"## Flow verdicts\" section")
	}
	section := doc[start:]
	if end := strings.Index(section[2:], "\n## "); end >= 0 {
		section = section[:end+2]
	}

	taxonomy := map[string]bool{}
	for _, name := range pipeline.VerdictNames() {
		taxonomy[name] = true
		if !regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(name) + "` \\|").MatchString(section) {
			t.Errorf("verdict %q is not documented in the Flow verdicts table (add a `%s` row)", name, name)
		}
	}

	// Reverse: every row in the table must name a live verdict, so renames
	// and removals can't leave stale documentation.
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\|").FindAllStringSubmatch(section, -1) {
		if !taxonomy[m[1]] {
			t.Errorf("Flow verdicts table documents %q, which is not in pipeline.VerdictNames()", m[1])
		}
	}
}

// metricsTable renders the runbook's metrics table from the registry.
func metricsTable() string {
	var b strings.Builder
	b.WriteString("| Series | Type | `/stats` field | Meaning |\n| --- | --- | --- | --- |\n")
	for _, m := range server.Metrics() {
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", m.Name, m.Kind, m.Path, m.Help)
	}
	return b.String()
}

func TestOperationsDocCoversMetrics(t *testing.T) {
	doc := operationsDoc(t)
	start := strings.Index(doc, "## Prometheus metrics")
	if start < 0 {
		t.Fatal("docs/OPERATIONS.md has no \"## Prometheus metrics\" section")
	}
	section := doc[start:]
	if end := strings.Index(section[2:], "\n## "); end >= 0 {
		section = section[:end+2]
	}
	var table strings.Builder
	for _, line := range strings.SplitAfter(section, "\n") {
		if strings.HasPrefix(line, "|") {
			table.WriteString(line)
		}
	}
	if want := metricsTable(); table.String() != want {
		t.Errorf("the Prometheus metrics table in docs/OPERATIONS.md differs from the registry in internal/server/metrics.go; it must read exactly:\n\n%s", want)
	}

	// Reverse: every series the rest of the runbook names must be emitted.
	registered := map[string]bool{}
	for _, m := range server.Metrics() {
		registered[m.Name] = true
	}
	for _, m := range regexp.MustCompile(`videoplat_[a-z_]+`).FindAllString(doc, -1) {
		if !registered[m] {
			t.Errorf("docs/OPERATIONS.md documents %s, which is not in the /metrics registry", m)
		}
	}
}

package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sparsewide/iva"
)

func TestSplitPair(t *testing.T) {
	cases := []struct {
		in      string
		a, v    string
		wantErr bool
	}{
		{"Price=230", "Price", "230", false},
		{"Type=Digital Camera", "Type", "Digital Camera", false},
		{"a=b=c", "a", "b=c", false},
		{"=x", "", "", true},
		{"x=", "", "", true},
		{"novalue", "", "", true},
	}
	for _, c := range cases {
		a, v, err := splitPair(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("splitPair(%q) err = %v", c.in, err)
			continue
		}
		if err == nil && (a != c.a || v != c.v) {
			t.Errorf("splitPair(%q) = %q,%q", c.in, a, v)
		}
	}
}

func TestParseRow(t *testing.T) {
	row, err := parseRow([]string{
		"Price=230", "Industry=Computer", "Industry=Software", "Company=Canon",
	})
	if err != nil {
		t.Fatal(err)
	}
	if row["Price"].Kind() != iva.Numeric || row["Price"].Float() != 230 {
		t.Fatalf("Price = %v", row["Price"])
	}
	if got := row["Industry"].Texts(); len(got) != 2 {
		t.Fatalf("Industry = %v, want two strings", got)
	}
	if _, err := parseRow(nil); err == nil {
		t.Fatal("empty row accepted")
	}
	if _, err := parseRow([]string{"bad"}); err == nil {
		t.Fatal("malformed pair accepted")
	}
}

func TestRunLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opts := iva.Options{Metric: "L2", Weights: "EQU"}
	if err := run("create", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("insert", []string{"Type=Camera", "Price=230"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("query", []string{"Type=Camera", "Price=200"}, dir, 5, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("explain", []string{"Type=Camera", "Price=200"}, dir, 5, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("get", []string{"0"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("stats", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("rebuild", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("check", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("attrs", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("delete", []string{"0"}, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("get", []string{"0"}, dir, 10, serveOpts{}, opts); err == nil {
		t.Fatal("get of deleted tuple succeeded")
	}
	if err := run("frobnicate", nil, dir, 10, serveOpts{}, opts); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run("get", []string{"notanumber"}, dir, 10, serveOpts{}, opts); err == nil {
		t.Fatal("bad tid accepted")
	}
}

// TestValidateFlags: values that used to pass silently into the store (a
// k <= 0 query, negative durations) are usage errors, every serve admission
// limit is checked, and so is the scrub interval /healthz depends on. Each
// case breaks one flag of an accepted set.
func TestValidateFlags(t *testing.T) {
	good := serveOpts{scrubEvery: 10 * time.Minute, reqTimeout: 2 * time.Second, drainTimeout: 30 * time.Second}
	if err := validateFlags(10, 250*time.Millisecond, good); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	with := func(f func(*serveOpts)) serveOpts {
		sv := good
		f(&sv)
		return sv
	}
	cases := []struct {
		name string
		k    int
		slow time.Duration
		sv   serveOpts
	}{
		{"k zero", 0, 0, good},
		{"k negative", -3, 0, good},
		{"negative slow", 10, -time.Second, good},
		{"zero scrub-interval", 10, 0, with(func(sv *serveOpts) { sv.scrubEvery = 0 })},
		{"negative scrub-interval", 10, 0, with(func(sv *serveOpts) { sv.scrubEvery = -time.Minute })},
		{"negative qps", 10, 0, with(func(sv *serveOpts) { sv.qps = -1 })},
		{"negative burst", 10, 0, with(func(sv *serveOpts) { sv.burst = -1 })},
		{"negative max-concurrent", 10, 0, with(func(sv *serveOpts) { sv.maxConcurrent = -1 })},
		{"negative max-queue", 10, 0, with(func(sv *serveOpts) { sv.maxQueue = -2 })},
		{"negative request-timeout", 10, 0, with(func(sv *serveOpts) { sv.reqTimeout = -time.Second })},
		{"zero drain-timeout", 10, 0, with(func(sv *serveOpts) { sv.drainTimeout = 0 })},
	}
	for _, c := range cases {
		if err := validateFlags(c.k, c.slow, c.sv); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDemo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "demo")
	opts := iva.Options{}
	if err := run("demo", nil, dir, 10, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
	if err := run("query", []string{"Type=Digital Camera", "Company=Canon"}, dir, 3, serveOpts{}, opts); err != nil {
		t.Fatal(err)
	}
}

// TestServeArgParsing: serve flags given after the subcommand must be
// honored, not silently dropped — a trailing -follow that went unparsed
// would bring a replica up as an independent primary.
func TestServeArgParsing(t *testing.T) {
	opts := iva.Options{Metric: "L2", Weights: "EQU"}
	fresh := filepath.Join(t.TempDir(), "replica")
	// Port 1 refuses connections: the error must come from the follower
	// bootstrap (proving -follow was parsed), not from opening the empty
	// dir as a regular store.
	err := run("serve", []string{"-follow", "http://127.0.0.1:1"}, fresh, 10, serveOpts{drainTimeout: time.Second, poll: time.Second}, opts)
	if err == nil {
		t.Fatal("serve -follow against a dead primary succeeded")
	}
	if !strings.Contains(err.Error(), "bootstrap follower") {
		t.Fatalf("error did not come from the follower bootstrap: %v", err)
	}
	if err := run("serve", []string{"stray"}, fresh, 10, serveOpts{drainTimeout: time.Second, poll: time.Second}, opts); err == nil {
		t.Fatal("stray serve argument accepted")
	}
	if err := run("serve", []string{"-poll", "-1s"}, fresh, 10, serveOpts{drainTimeout: time.Second, poll: time.Second}, opts); err == nil {
		t.Fatal("negative -poll after subcommand accepted")
	}
}

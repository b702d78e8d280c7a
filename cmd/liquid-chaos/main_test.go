package main

import (
	"fmt"
	"testing"
	"time"

	"liquidarch/internal/sim"
)

func TestParseArgsPerDirectionOverride(t *testing.T) {
	for _, args := range [][]string{
		{"-drop", "0.2", "-up-drop", "0", "-jitter", "2ms", "-down-latency", "5ms"},
		{"-up-drop", "0", "-down-latency", "5ms", "-drop", "0.2", "-jitter", "2ms"},
	} {
		c, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		up := sim.LinkParams{Jitter: 2 * time.Millisecond}
		down := sim.LinkParams{Drop: 0.2, Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}
		if fmt.Sprint(c.up) != fmt.Sprint(up) || fmt.Sprint(c.down) != fmt.Sprint(down) {
			t.Errorf("%q: up %+v down %+v, want up %+v down %+v", args, c.up, c.down, up, down)
		}
	}
}

func TestParseArgsScriptReachesBothLinks(t *testing.T) {
	c, err := parseArgs([]string{"-seed", "7", "-script", "up:load@4+=drop,down:status=dup"})
	if err != nil {
		t.Fatal(err)
	}
	if c.seed != 7 || len(c.up.Rules) != 2 || len(c.down.Rules) != 2 {
		t.Fatalf("seed %d, %d up rules, %d down rules", c.seed, len(c.up.Rules), len(c.down.Rules))
	}
	if _, err := parseArgs([]string{"-script", "sideways:load=drop"}); err == nil {
		t.Fatal("a malformed script was accepted")
	}
}

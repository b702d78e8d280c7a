package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Action is a scripted fault.
type Action uint8

// Scripted actions.
const (
	ActDrop Action = iota
	ActDup
	ActReorder
	ActTruncate // Arg = bytes to keep
	ActDelay    // Arg = nanoseconds
)

func (a Action) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	case ActReorder:
		return "reorder"
	case ActTruncate:
		return "trunc"
	case ActDelay:
		return "delay"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// Rule is one surgical fault: in direction Dir, the Nth packet (1-based;
// 0 = every, From = Nth and onward) carrying control command Cmd
// (netproto.CommandName label, e.g. "load", "start", "result") suffers
// Action. Rules let a test say "drop the 3rd load chunk" or "dup every
// start ack" exactly, with no randomness at all.
type Rule struct {
	Dir    Direction
	Cmd    string
	Nth    int
	From   bool // apply from the Nth occurrence onward
	Action Action
	Arg    int64 // truncate: bytes kept; delay: nanoseconds

	seen int // occurrence counter, advanced by the injector
}

// ParseScript parses the liquid-chaos mini-DSL: comma-separated rules
// of the form
//
//	dir:cmd[@n[+]]=action[:arg]
//
// where dir is up|down, cmd is a control command label ("status",
// "load", "start", "readmem", "writemem", "reconfigure", "getconfig",
// "trace", "stats", "result", "traces", "wait", "reconfigstatus",
// "waitreconfig", "error"), @n selects the nth matching packet
// (append + for "nth onward"; omit for every), and action is drop |
// dup | reorder | trunc:BYTES | delay:DURATION.
//
// Examples:
//
//	up:load@3=drop          drop the 3rd load chunk the client sends
//	down:start=dup          duplicate every start ack
//	up:load@4+=drop         black-hole the load from chunk 4 onward
//	down:result@1=delay:50ms  delay the first result response
func ParseScript(s string) ([]*Rule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var rules []*Rule
	for _, part := range strings.Split(s, ",") {
		r, err := parseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseRule(s string) (*Rule, error) {
	lhs, rhs, ok := strings.Cut(s, "=")
	if !ok {
		return nil, fmt.Errorf("chaos: rule %q: missing '='", s)
	}
	dirStr, cmdStr, ok := strings.Cut(lhs, ":")
	if !ok {
		return nil, fmt.Errorf("chaos: rule %q: missing direction", s)
	}
	r := &Rule{}
	switch dirStr {
	case "up":
		r.Dir = Up
	case "down":
		r.Dir = Down
	default:
		return nil, fmt.Errorf("chaos: rule %q: direction %q (want up|down)", s, dirStr)
	}
	if cmd, nth, ok := strings.Cut(cmdStr, "@"); ok {
		cmdStr = cmd
		if strings.HasSuffix(nth, "+") {
			r.From = true
			nth = strings.TrimSuffix(nth, "+")
		}
		n, err := strconv.Atoi(nth)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("chaos: rule %q: bad occurrence %q", s, nth)
		}
		r.Nth = n
	}
	if cmdStr == "" {
		return nil, fmt.Errorf("chaos: rule %q: empty command", s)
	}
	r.Cmd = cmdStr

	act, arg, _ := strings.Cut(rhs, ":")
	switch act {
	case "drop":
		r.Action = ActDrop
	case "dup":
		r.Action = ActDup
	case "reorder":
		r.Action = ActReorder
	case "trunc":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("chaos: rule %q: trunc wants a byte count", s)
		}
		r.Action, r.Arg = ActTruncate, int64(n)
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("chaos: rule %q: delay wants a duration: %v", s, err)
		}
		r.Action, r.Arg = ActDelay, int64(d)
	default:
		return nil, fmt.Errorf("chaos: rule %q: action %q (want drop|dup|reorder|trunc:N|delay:D)", s, act)
	}
	return r, nil
}

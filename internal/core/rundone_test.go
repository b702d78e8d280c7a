package core

import (
	"testing"
	"time"

	"liquidarch/internal/lcc"
	"liquidarch/internal/leon"
)

// TestRunDoneHookSurvivesReconfigure: the FPX platform's run-done hook
// (what lets a mounted server park CmdWaitResult exchanges) must reach
// the System's board actor through tracedControl, and must stay armed
// after a full reconfiguration reloads the board.
func TestRunDoneHookSurvivesReconfigure(t *testing.T) {
	s := newSystem(t, leon.DefaultConfig())
	fired := make(chan struct{}, 4)
	s.Platform().SetRunDoneHook(func() { fired <- struct{}{} })

	img, err := s.CompileC("int main() { return 5; }", lcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("run-done hook never fired")
	}

	// Force the FULL reconfiguration path (a non-cache change), which
	// boots a new SoC on the board actor; the hook must still fire.
	cfg := s.Config()
	cfg.BurstWords *= 2
	if _, err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(img, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("run-done hook lost across full reconfiguration")
	}
}

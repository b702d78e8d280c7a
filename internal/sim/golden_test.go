package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// goldenBurst sends 64 one-byte datagrams across one link of a fabric
// whose clock only moves when the test steps it, then steps the clock
// event by event and records every delivery as "payload@ns", the
// virtual time of its arrival after the burst. With no stepper the
// record depends on nothing but the seed and the link's parameters.
func goldenBurst(t *testing.T, seed int64, lp LinkParams) (string, LinkStats) {
	t.Helper()
	clk := NewVirtualClock()
	n := NewNetwork(clk, seed)
	srv, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Dial(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	n.SetLink(cli.LocalAddr(), srv.LocalAddr(), lp)
	start := clk.Now()
	for i := 0; i < 64; i++ {
		cli.Write([]byte{byte(i)})
	}
	var got []string
	buf := make([]byte, 8)
	drain := func() {
		srv.SetReadDeadline(clk.Now())
		for {
			k, _, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			got = append(got, fmt.Sprintf("%d@%d", buf[0], clk.Since(start).Nanoseconds()))
			if k != 1 {
				t.Fatalf("delivery of %d bytes", k)
			}
		}
	}
	drain()
	for clk.step() {
		drain()
	}
	return strings.Join(got, " "), n.LinkStats(cli.LocalAddr(), srv.LocalAddr())
}

// TestFaultScheduleGolden pins the fabric's fault schedule: which
// datagrams a seeded link drops, duplicates and holds back, and when
// the survivors arrive. modeltest's sweeps, its dedup-bug hunt and the
// in-fabric storms all draw from this schedule, so a change to the
// fault engine that moves it moves every one of them.
func TestFaultScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lp    LinkParams
		want  string
		stats LinkStats
	}{
		{
			// faultTrace's burst.
			name: "drop-dup-reorder",
			lp:   LinkParams{Drop: 0.3, Dup: 0.2, Reorder: 0.2, Latency: time.Millisecond},
			want: `
				2@1000000 4@1000000 5@1000000 6@1000000 9@1000000 10@1000000 11@1000000 12@1000000
				12@1000000 13@1000000 13@1000000 16@1000000 18@1000000 17@1000000 20@1000000 23@1000000
				21@1000000 22@1000000 23@1000000 26@1000000 24@1000000 25@1000000 27@1000000 27@1000000
				28@1000000 29@1000000 31@1000000 31@1000000 34@1000000 32@1000000 36@1000000 35@1000000
				38@1000000 37@1000000 38@1000000 39@1000000 40@1000000 41@1000000 42@1000000 43@1000000
				45@1000000 46@1000000 53@1000000 52@1000000 56@1000000 55@1000000 58@1000000 59@1000000
				61@1000000 63@1000000 63@1000000`,
			// Two datagrams draw both dup and reorder: each is held
			// without its copy, so neither counts as a dup.
			stats: LinkStats{Sent: 64, Delivered: 51, Dropped: 20, Duped: 7, Reordered: 10},
		},
		{
			// modeltest's bugConfig mix: late duplicates and jitter.
			name: "late-dup-jitter",
			lp:   LinkParams{Dup: 0.35, DupDelay: 40 * time.Millisecond, Latency: time.Millisecond, Jitter: 500 * time.Microsecond},
			want: `
				57@1006321 52@1007476 43@1016023 6@1016458 62@1017158 15@1034425 36@1050876 34@1070647
				4@1094464 19@1098879 3@1099167 24@1108485 7@1109684 14@1114035 58@1130612 2@1138901
				63@1139403 29@1144216 5@1145682 49@1157161 40@1161730 9@1161928 28@1164498 13@1170728
				61@1180907 33@1187108 30@1200204 54@1200887 23@1215867 55@1224204 18@1235597 48@1236887
				53@1237734 60@1248693 1@1257799 10@1265410 59@1274208 42@1279402 27@1286330 16@1287983
				21@1288591 25@1291360 20@1291850 39@1294454 47@1299392 31@1301478 22@1309473 12@1345712
				51@1345784 32@1363766 46@1367747 38@1372189 50@1379279 45@1392708 8@1412274 37@1419099
				35@1439237 17@1440606 0@1447031 56@1453522 11@1470546 41@1471284 26@1477983 44@1490786
				15@41034425 24@41108485 63@41139403 29@41144216 49@41157161 40@41161730 13@41170728 61@41180907
				33@41187108 30@41200204 60@41248693 27@41286330 16@41287983 31@41301478 46@41367747 38@41372189
				8@41412274 37@41419099 0@41447031 56@41453522 26@41477983`,
			stats: LinkStats{Sent: 64, Delivered: 85, Duped: 21},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, stats := goldenBurst(t, 42, tc.lp)
			if want := strings.Join(strings.Fields(tc.want), " "); got != want {
				t.Errorf("deliveries at seed 42:\n got %s\nwant %s", got, want)
			}
			if stats != tc.stats {
				t.Errorf("stats at seed 42 = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}

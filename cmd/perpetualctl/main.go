// Command perpetualctl drives the Perpetual-WS experiment suite: it
// regenerates the paper's evaluation figures at full resolution and
// prints the qualitative property matrix (Figure 2).
//
// Usage:
//
//	perpetualctl properties
//	perpetualctl fig6 [-quick] [-sync] [-think 700ms] [-measure 2s]
//	perpetualctl fig7 [-quick] [-calls 1000] [-runs 3] [-batch N] [-inflight N] [-transport mem|tcp]
//	perpetualctl fig8 [-quick] [-calls 200] [-runs 3]
//	perpetualctl fig9 [-quick] [-calls 300] [-runs 3]
//	perpetualctl all  [-quick]
//
// -quick shrinks the parameter grids so a full pass finishes in a couple
// of minutes on a laptop; without it the sweeps match the paper's grids
// (group sizes 1/4/7/10, RBE counts 7..70, 0..20 ms processing). The
// repo's performance instrument is the benchmark/ module
// (`go run -C benchmark .`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"perpetualws/internal/bench"
	"perpetualws/internal/perpetual"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "-h", "-help", "--help", "help":
		// Explicitly requested help goes to stdout and exits 0; only
		// unknown commands and missing arguments are usage errors.
		usage(os.Stdout)
	case "properties":
		printProperties()
	case "fig6":
		err = runFig6(args)
	case "fig7":
		err = runFig7(args)
	case "fig8":
		err = runFig8(args)
	case "fig9":
		err = runFig9(args)
	case "all":
		for _, sub := range []func([]string) error{runFig7, runFig8, runFig9, runFig6} {
			if err = sub(args); err != nil {
				break
			}
		}
	default:
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perpetualctl:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: perpetualctl <properties|fig6|fig7|fig8|fig9|all> [flags]
  properties  print the paper's Figure 2 property matrix
  fig6        TPC-W WIPS vs RBE count (payment-tier replication sweep)
  fig7        replica scalability, null requests (-transport tcp runs the
              sweep over loopback sockets)
  fig8        effect of non-zero processing time
  fig9        effect of asynchronous messaging
  all         fig7, fig8, fig9, then fig6
every figure accepts -quick (reduced grids); run 'perpetualctl <fig> -h'
for its flags`)
}

func runFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grid")
	sync := fs.Bool("sync", false, "synchronous PGE/Bank variant")
	think := fs.Duration("think", 700*time.Millisecond, "mean RBE think time")
	measure := fs.Duration("measure", 2*time.Second, "measurement window per cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Figure6Config{ThinkTime: *think, Measure: *measure, Sync: *sync}
	if *quick {
		cfg.Degrees = []int{1, 4}
		cfg.RBECounts = []int{14, 42, 70}
		cfg.Measure = 1 * time.Second
	}
	fmt.Println("running figure 6 (TPC-W)...")
	fig, err := bench.RunFigure6(cfg)
	if err != nil {
		return err
	}
	fmt.Println(fig.Format())
	return nil
}

func runFig7(args []string) error {
	fs := flag.NewFlagSet("fig7", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grid")
	calls := fs.Int("calls", 1000, "requests per calling replica per cell")
	runs := fs.Int("runs", 3, "runs averaged per cell")
	batch := fs.Int("batch", 0, "CLBFT request batch size (<=1 disables batching)")
	inflight := fs.Int("inflight", 0, "outstanding requests per caller (<=1 closed loop)")
	transport := fs.String("transport", "mem", "transport: mem or tcp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var kind perpetual.TransportKind
	switch *transport {
	case "mem":
		kind = perpetual.TransportMem
	case "tcp":
		kind = perpetual.TransportTCP
	default:
		return fmt.Errorf("unknown transport %q (want mem or tcp)", *transport)
	}
	cfg := bench.Figure7Config{
		Calls: *calls, Runs: *runs, MaxBatch: *batch, Inflight: *inflight, Transport: kind,
	}
	if *quick {
		cfg.Degrees = []int{1, 4, 7}
		cfg.Calls = 80
		cfg.Runs = 1
	}
	fmt.Printf("running figure 7 (replica scalability, transport=%s)...\n", *transport)
	fig, err := bench.RunFigure7(cfg)
	if err != nil {
		return err
	}
	fmt.Println(fig.Format())
	return nil
}

func runFig8(args []string) error {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grid")
	calls := fs.Int("calls", 200, "requests per cell")
	runs := fs.Int("runs", 3, "runs averaged per cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Figure8Config{Calls: *calls, Runs: *runs}
	if *quick {
		cfg.Degrees = []int{1, 4}
		cfg.Processing = []time.Duration{0, 2 * time.Millisecond, 6 * time.Millisecond, 12 * time.Millisecond}
		cfg.Calls = 40
		cfg.Runs = 1
	}
	fmt.Println("running figure 8 (processing time)...")
	timeFig, ovhFig, err := bench.RunFigure8(cfg)
	if err != nil {
		return err
	}
	fmt.Println(timeFig.Format())
	fmt.Println(ovhFig.Format())
	return nil
}

func runFig9(args []string) error {
	fs := flag.NewFlagSet("fig9", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced grid")
	calls := fs.Int("calls", 300, "requests per cell")
	runs := fs.Int("runs", 3, "runs averaged per cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Figure9Config{Calls: *calls, Runs: *runs}
	if *quick {
		cfg.Degrees = []int{4, 7}
		cfg.Windows = []int{1, 5, 10, 25}
		cfg.Calls = 60
		cfg.Runs = 1
	}
	fmt.Println("running figure 9 (asynchronous messaging)...")
	fig, err := bench.RunFigure9(cfg)
	if err != nil {
		return err
	}
	fmt.Println(fig.Format())
	return nil
}

func printProperties() {
	fmt.Print(`Figure 2 — Unique properties of Perpetual-WS (paper, Section 3)

  Property                              Thema  BFT-WS  SWS  Perpetual-WS
  Replicated-WS interoperability          no      no   yes           yes
  Fault isolation                         no      no    no           yes
  Long-running active threads             no      no    no           yes
  Asynchronous communication              no      no    no           yes
  Access to host-specific information     no      no    no           yes
  Low cryptographic overhead (MACs)      yes      no    no           yes
  Transport independence                  no     yes     ?           yes
  Support for unmodified passive WS      yes     yes   yes           yes
  Dynamic WS discovery                    no      no   yes            no
`)
}

// Command vadalog is the command-line front end of the reproduction: it
// loads a program (rules + facts + queries in one file, or split across
// files), reports the syntactic classification of Section 3–4 (warded?
// piece-wise linear? levels?), and answers the embedded queries with a
// selectable engine.
//
// Usage:
//
//	vadalog [-engine auto|prooftree|alternating|chase|translate|ucq]
//	        [-stats] [-classify-only] [-data dir] [-export dir] [-repl]
//	        file.vada [more files...]
//
// Files are parsed into one shared naming context in order, so a data
// file and a rule file can be mixed freely. -data loads <pred>.csv
// relations from a directory before answering; -export chases the program
// and writes every predicate of the result back as CSV. -repl starts an
// interactive session after loading the files. With no files and no -repl,
// stdin is read as a program.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/relio"
	"repro/internal/storage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vadalog:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	return runIO(args, os.Stdin, out)
}

func runIO(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("vadalog", flag.ContinueOnError)
	engine := fs.String("engine", "auto", "auto | prooftree | alternating | chase | translate | ucq")
	stats := fs.Bool("stats", false, "print engine statistics")
	classifyOnly := fs.Bool("classify-only", false, "only report the program classification")
	explain := fs.Bool("explain", false, "print the per-rule variable classification and wards")
	dataDir := fs.String("data", "", "directory of <pred>.csv relations to load")
	exportDir := fs.String("export", "", "chase the program and export every relation as CSV to this directory")
	replMode := fs.Bool("repl", false, "interactive session after loading the given files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var src string
	var err error
	if *replMode && len(fs.Args()) == 0 {
		src = "" // a REPL can start from an empty program
	} else {
		src, err = readAllFrom(fs.Args(), in)
		if err != nil {
			return err
		}
	}
	res, err := parser.Parse(src)
	if err != nil {
		return err
	}
	db := storage.NewDB()
	db.InsertAll(res.Facts)
	if *dataDir != "" {
		n, err := relio.LoadDir(res.Program, db, *dataDir)
		if err != nil {
			return fmt.Errorf("-data: %w", err)
		}
		fmt.Fprintf(out, "loaded %d facts from %s\n", n, *dataDir)
	}
	if *replMode {
		strat, err := parseEngine(*engine)
		if err != nil {
			return err
		}
		return repl(in, out, res.Program, db, strat, *stats)
	}

	r := core.New(res.Program)
	printClassification(out, res.Program, r.Class())
	if *explain {
		fmt.Fprintln(out)
		fmt.Fprint(out, analysis.FormatReport(analysis.Analyze(res.Program).Explain()))
	}
	if *classifyOnly {
		return nil
	}
	strat, err := parseEngine(*engine)
	if err != nil {
		return err
	}
	for i, q := range res.Queries {
		fmt.Fprintf(out, "\nquery %d: %s\n", i+1, q.String(res.Program.Store, res.Program.Reg))
		ans, info, err := r.CertainAnswers(db, q, strat)
		if err != nil {
			return fmt.Errorf("query %d: %w", i+1, err)
		}
		fmt.Fprintf(out, "engine: %s%s\n", info.Strategy, incompleteTag(info))
		if q.IsBoolean() {
			fmt.Fprintf(out, "answer: %v\n", len(ans) > 0)
		} else {
			fmt.Fprintf(out, "answers (%d):\n", len(ans))
			for _, tup := range ans {
				fmt.Fprintf(out, "  (%s)\n", strings.Join(res.Program.Store.Names(tup), ", "))
			}
		}
		if *stats {
			printStats(out, info)
		}
	}
	if *exportDir != "" {
		cres, err := chase.Run(res.Program, db, r.ChaseOptions)
		if err != nil {
			return fmt.Errorf("-export: %w", err)
		}
		if err := relio.DumpDir(res.Program, cres.DB, *exportDir); err != nil {
			return fmt.Errorf("-export: %w", err)
		}
		fmt.Fprintf(out, "\nexported %d facts to %s%s\n", cres.DB.Len(), *exportDir,
			map[bool]string{true: " (chase truncated; export is a sound prefix)", false: ""}[cres.Truncated])
	}
	return nil
}

func incompleteTag(info *core.Info) string {
	if info.Incomplete {
		return " (INCOMPLETE: program outside the decidable classes or budget hit)"
	}
	return ""
}

func readAllFrom(files []string, stdin io.Reader) (string, error) {
	if len(files) == 0 {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	var sb strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

func parseEngine(s string) (core.Strategy, error) {
	switch s {
	case "auto":
		return core.Auto, nil
	case "prooftree":
		return core.ProofTreeLinear, nil
	case "alternating":
		return core.ProofTreeAlternating, nil
	case "chase":
		return core.ChaseEngine, nil
	case "translate":
		return core.Translated, nil
	case "ucq":
		return core.UCQRewrite, nil
	default:
		return 0, fmt.Errorf("unknown engine %q", s)
	}
}

func printClassification(out io.Writer, prog *logic.Program, c analysis.Class) {
	fmt.Fprintf(out, "program: %d TGDs, %d predicates\n", c.NumTGDs, c.NumPreds)
	fmt.Fprintf(out, "classification:\n")
	fmt.Fprintf(out, "  warded:              %v\n", c.Warded)
	fmt.Fprintf(out, "  piece-wise linear:   %v\n", c.PWL)
	fmt.Fprintf(out, "  intensionally linear:%v\n", c.IL)
	fmt.Fprintf(out, "  datalog (full):      %v\n", c.Datalog)
	fmt.Fprintf(out, "  linear datalog:      %v\n", c.LinearDatalog)
	fmt.Fprintf(out, "  linearizable:        %v\n", c.Linearizable)
	fmt.Fprintf(out, "  max predicate level: %d\n", c.MaxLevel)
	if c.HasNegation {
		fmt.Fprintf(out, "  negation:            present (stratified=%v, mild=%v)\n",
			c.StratifiedNegation, c.MildNegation)
	}
	switch {
	case c.Warded && c.PWL:
		fmt.Fprintf(out, "  => WARD ∩ PWL: NLogSpace data complexity (Theorem 4.2); linear proof trees apply\n")
	case c.Warded:
		fmt.Fprintf(out, "  => WARD: PTime data complexity (Proposition 3.2)\n")
	case c.PWL:
		fmt.Fprintf(out, "  => PWL without wardedness: undecidable in general (Theorem 5.1); best-effort chase\n")
	default:
		fmt.Fprintf(out, "  => outside the paper's classes; best-effort chase\n")
	}
	_ = prog
}

func printStats(out io.Writer, info *core.Info) {
	if st := info.ProofStats; st != nil {
		fmt.Fprintf(out, "stats: bound=%d visited=%d resolutions=%d discharges=%d maxAtoms=%d maxStateBytes=%d frontier=%d\n",
			st.Bound, st.Visited, st.Resolutions, st.Discharges, st.MaxStateAtoms, st.MaxStateBytes, st.PeakFrontier)
	}
	if cs := info.ChaseStats; cs != nil {
		fmt.Fprintf(out, "stats: facts=%d rounds=%d applications=%d suppressedMemo=%d suppressedRestricted=%d memoPatterns=%d truncated=%v\n",
			cs.DB.Len(), cs.Rounds, cs.Applications, cs.SuppressedByMemo, cs.SuppressedRestricted, cs.MemoPatterns, cs.Truncated)
	}
	if us := info.UCQStats; us != nil {
		fmt.Fprintf(out, "stats: ucq-members=%d states=%d resolutions=%d complete=%v\n",
			len(us.CQs), us.States, us.Resolutions, us.Complete)
	}
}

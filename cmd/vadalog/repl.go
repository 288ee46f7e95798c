package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/prooftree"
	"repro/internal/relio"
	"repro/internal/storage"
	"repro/internal/term"
)

const replHelp = `statements end with '.':
  fact:   e(a,b).
  rule:   t(X,Y) :- e(X,Y).
  query:  ?(X) :- t(a,X).      answered immediately
commands:
  :help                this text
  :classify            report the program classification
  :rules               list the current rules
  :facts [pred]        fact counts (or facts of one predicate)
  :engine <name>       auto|prooftree|alternating|chase|translate|ucq
  :stats on|off        toggle per-query engine statistics
  :load <dir>          load <pred>.csv relations from a directory
  :why <fact>          chase and print a derivation tree for the fact
  :prove <fact>        print a linear proof-tree run for the fact (WARD ∩ PWL)
  :quit                leave
`

// repl runs an interactive session: rules and facts accumulate in the
// shared naming context, queries are answered as they arrive, and the
// reasoner (with its classification) is rebuilt whenever the rule set
// changes.
func repl(in io.Reader, out io.Writer, prog *logic.Program, db *storage.DB, strat core.Strategy, stats bool) error {
	fmt.Fprintln(out, "vadalog repl — :help for commands")
	reasoner := core.New(prog)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Fprint(out, "> ") }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			prompt()
			continue
		case pending.Len() == 0 && strings.HasPrefix(line, ":"):
			if quit := replCommand(out, line, prog, db, &reasoner, &strat, &stats); quit {
				return nil
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.HasSuffix(line, ".") {
			fmt.Fprint(out, "| ") // continuation
			continue
		}
		stmt := pending.String()
		pending.Reset()
		replStatement(out, stmt, prog, db, &reasoner, strat, stats)
		prompt()
	}
	fmt.Fprintln(out)
	return sc.Err()
}

// replStatement parses one complete statement and applies it: facts are
// inserted, rules appended (rebuilding the reasoner), queries answered.
func replStatement(out io.Writer, stmt string, prog *logic.Program, db *storage.DB, reasoner **core.Reasoner, strat core.Strategy, stats bool) {
	before := len(prog.TGDs)
	res, err := parser.ParseInto(prog, stmt)
	if err != nil {
		// Parsing may have appended rules before failing; roll back.
		prog.TGDs = prog.TGDs[:before]
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if n := db.InsertAll(res.Facts); n > 0 || len(res.Facts) > 0 {
		fmt.Fprintf(out, "+%d facts\n", n)
	}
	if len(prog.TGDs) != before {
		*reasoner = core.New(prog)
		fmt.Fprintf(out, "+%d rules (program: %d TGDs)\n", len(prog.TGDs)-before, len(prog.TGDs))
	}
	for _, q := range res.Queries {
		ans, info, err := (*reasoner).CertainAnswers(db, q, strat)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		if q.IsBoolean() {
			fmt.Fprintf(out, "%v  [%s]%s\n", len(ans) > 0, info.Strategy, incompleteTag(info))
		} else {
			for _, tup := range ans {
				fmt.Fprintf(out, "(%s)\n", strings.Join(prog.Store.Names(tup), ", "))
			}
			fmt.Fprintf(out, "%d answers  [%s]%s\n", len(ans), info.Strategy, incompleteTag(info))
		}
		if stats {
			printStats(out, info)
		}
	}
}

// replCommand executes a ':' command, reporting whether the session should
// end.
func replCommand(out io.Writer, line string, prog *logic.Program, db *storage.DB, reasoner **core.Reasoner, strat *core.Strategy, stats *bool) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":exit", ":q":
		return true
	case ":help":
		fmt.Fprint(out, replHelp)
	case ":classify":
		printClassification(out, prog, (*reasoner).Class())
	case ":rules":
		if len(prog.TGDs) == 0 {
			fmt.Fprintln(out, "(no rules)")
		}
		for _, t := range prog.TGDs {
			fmt.Fprintln(out, t.String(prog.Store, prog.Reg))
		}
	case ":facts":
		if len(fields) > 1 {
			id, ok := prog.Reg.Lookup(fields[1])
			if !ok {
				fmt.Fprintf(out, "unknown predicate %q\n", fields[1])
				break
			}
			for _, f := range db.Facts(id) {
				fmt.Fprintln(out, f.String(prog.Store, prog.Reg))
			}
			break
		}
		counts := make(map[string]int)
		for _, f := range db.All() {
			counts[prog.Reg.Name(f.Pred)]++
		}
		if len(counts) == 0 {
			fmt.Fprintln(out, "(no facts)")
		}
		for _, name := range prog.Reg.SortedNames() {
			if counts[name] > 0 {
				fmt.Fprintf(out, "%-20s %d\n", name, counts[name])
			}
		}
	case ":engine":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: :engine <name>")
			break
		}
		s, err := parseEngine(fields[1])
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		*strat = s
		fmt.Fprintf(out, "engine: %s\n", s)
	case ":stats":
		if len(fields) == 2 && fields[1] == "on" {
			*stats = true
		} else if len(fields) == 2 && fields[1] == "off" {
			*stats = false
		} else {
			fmt.Fprintln(out, "usage: :stats on|off")
			break
		}
		fmt.Fprintf(out, "stats: %v\n", *stats)
	case ":load":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: :load <dir>")
			break
		}
		n, err := relio.LoadDir(prog, db, fields[1])
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(out, "+%d facts from %s\n", n, fields[1])
	case ":why":
		arg := strings.TrimSpace(strings.TrimPrefix(line, ":why"))
		if arg == "" {
			fmt.Fprintln(out, "usage: :why pred(c1,...,cn)")
			break
		}
		if err := replWhy(out, arg, prog, db); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	case ":prove":
		arg := strings.TrimSpace(strings.TrimPrefix(line, ":prove"))
		if arg == "" {
			fmt.Fprintln(out, "usage: :prove pred(c1,...,cn)")
			break
		}
		if err := replProve(out, arg, prog, db); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	default:
		fmt.Fprintf(out, "unknown command %s (:help)\n", fields[0])
	}
	return false
}

// replProve runs the linear proof-tree search for the given ground fact
// (as an atomic query) and prints the accepting run — a linear proof tree.
func replProve(out io.Writer, factSrc string, prog *logic.Program, db *storage.DB) error {
	if !strings.HasSuffix(factSrc, ".") {
		factSrc += "."
	}
	scratch := &logic.Program{Store: prog.Store, Reg: prog.Reg}
	res, err := parser.ParseInto(scratch, factSrc)
	if err != nil {
		return err
	}
	if len(res.Facts) != 1 || len(res.Queries) != 0 || len(scratch.TGDs) != 0 {
		return fmt.Errorf(":prove takes exactly one ground fact")
	}
	f := res.Facts[0]
	// Build the atomic query ?(x1..xn) :- p(x1..xn) and decide the fact's
	// tuple with a trace.
	q := &logic.CQ{}
	args := make([]term.Term, len(f.Args))
	for i := range f.Args {
		if args[i], err = prog.Store.FreshVar("_prove"); err != nil {
			return err
		}
		q.Output = append(q.Output, args[i])
	}
	q.Atoms = []atom.Atom{atom.New(f.Pred, args...)}
	ok, tr, stats, err := prooftree.DecideWithTrace(prog, db, q, f.Args,
		prooftree.Options{Mode: prooftree.Linear, MaxVisited: 2_000_000})
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintln(out, "not certain (no linear proof tree exists)")
		return nil
	}
	fmt.Fprintf(out, "certain (node-width bound %d, max width used %d)\n", stats.Bound, tr.MaxWidth())
	fmt.Fprint(out, tr.Format())
	return nil
}

// replWhy chases the current program with provenance and prints the
// derivation tree of the given ground fact.
func replWhy(out io.Writer, factSrc string, prog *logic.Program, db *storage.DB) error {
	if !strings.HasSuffix(factSrc, ".") {
		factSrc += "."
	}
	// Parse the fact in a scratch program sharing the naming context, so
	// the rule set is untouched and constants resolve to existing terms.
	scratch := &logic.Program{Store: prog.Store, Reg: prog.Reg}
	res, err := parser.ParseInto(scratch, factSrc)
	if err != nil {
		return err
	}
	if len(res.Facts) != 1 || len(res.Queries) != 0 || len(scratch.TGDs) != 0 {
		return fmt.Errorf(":why takes exactly one ground fact")
	}
	opt := chase.Default()
	opt.Provenance = true
	cres, err := chase.Run(prog, db, opt)
	if err != nil {
		return err
	}
	exp, err := cres.Explain(res.Facts[0])
	if err != nil {
		return err
	}
	fmt.Fprint(out, exp.Format(prog))
	return nil
}

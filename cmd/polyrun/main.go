// Command polyrun executes heterogeneous programs against the built-in
// synthetic clinical deployment (the Figure 2 engines) and prints results
// plus the middleware's execution report.
//
// Statements are given with -stmt, prefixed by the frontend to use:
//
//	polyrun -stmt "sql: SELECT pid, age FROM patients WHERE age > 60 ORDER BY age DESC LIMIT 5"
//	polyrun -stmt "nl: how many patients are there?"
//	polyrun -stmt "text: ventilator sedation"
//	polyrun -patients 500 -accel=false -level 1 -stmt "sql: ..."
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"polystorepp"
	"polystorepp/internal/datagen"
	"polystorepp/internal/hw"
)

type stmtList []string

func (s *stmtList) String() string { return strings.Join(*s, "; ") }
func (s *stmtList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `polyrun — execute heterogeneous programs on the demo clinical deployment

Statements take a 'frontend:' prefix:
  polyrun -stmt "sql: SELECT pid, age FROM patients WHERE age > 60 LIMIT 5"
  polyrun -stmt "nl: how many patients are there?"
  polyrun -stmt "text: ventilator sedation"

Usage:
  polyrun [flags] -stmt "..." [-stmt "..."]

Flags:
`)
	flag.PrintDefaults()
}

func main() {
	var stmts stmtList
	patients := flag.Int("patients", 200, "synthetic patients to generate")
	accel := flag.Bool("accel", true, "attach hardware accelerator models")
	level := flag.Int("level", 3, "optimization level 0..3")
	seed := flag.Int64("seed", 42, "data generator seed")
	flag.Var(&stmts, "stmt", "statement to run (repeatable): 'sql: ...', 'nl: ...', or 'text: ...'")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "polyrun: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if len(stmts) == 0 {
		fmt.Fprintln(os.Stderr, "polyrun: at least one -stmt is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(stmts, *patients, *accel, *level, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "polyrun: %v\n", err)
		os.Exit(1)
	}
}

func run(stmts []string, patients int, accel bool, level int, seed int64) error {
	ctx := context.Background()
	data, err := datagen.GenerateClinical(rand.New(rand.NewSource(seed)), patients)
	if err != nil {
		return err
	}
	opts := []polystore.Option{polystore.WithClinical(data)}
	if accel {
		opts = append(opts, polystore.WithAccelerators(hw.Coprocessor,
			hw.NewFPGA(), hw.NewGPU(), hw.NewTPU()))
	}
	sys := polystore.New(opts...)
	engines := data.Binding()
	nl := sys.NLTranslator(engines)

	for _, stmt := range stmts {
		frontend, body, ok := strings.Cut(stmt, ":")
		if !ok {
			return fmt.Errorf("statement %q needs a 'frontend:' prefix", stmt)
		}
		body = strings.TrimSpace(body)
		var prog *polystore.Program
		switch strings.TrimSpace(strings.ToLower(frontend)) {
		case "sql":
			prog = sys.NewProgram()
			if _, err := prog.SQL(engines.Relational, body); err != nil {
				return err
			}
		case "nl":
			p, rule, err := nl.Translate(body)
			if err != nil {
				return err
			}
			fmt.Printf("-- nl rule: %s\n", rule)
			prog = p
		case "text":
			prog = sys.NewProgram()
			prog.TextSearch(engines.Text, body, 10)
		default:
			return fmt.Errorf("unknown frontend %q (want sql, nl, text)", frontend)
		}
		res, rep, err := sys.RunWith(ctx, prog, polystore.Options{Level: level, Accel: accel})
		if err != nil {
			return err
		}
		fmt.Printf("-- %s\n", stmt)
		if b := res.First().Batch; b != nil {
			fmt.Printf("%s\n", b.Schema())
			for i := 0; i < b.Rows() && i < 20; i++ {
				row, err := b.Row(i)
				if err != nil {
					return err
				}
				fmt.Println(row)
			}
			if b.Rows() > 20 {
				fmt.Printf("... (%d rows total)\n", b.Rows())
			}
		}
		fmt.Println(rep)
	}
	return nil
}

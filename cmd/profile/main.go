// Command profile prints the switching profile (a Table 1 row) of one
// case-study application, optionally with a coarser Tw granularity to show
// the memory/conservativeness trade-off.
//
// Usage:
//
//	profile -app C1 [-granularity 3]
package main

import (
	"fmt"
	"io"

	"tightcps/internal/cli"
	"tightcps/internal/plants"
	"tightcps/internal/switching"
	"tightcps/internal/textplot"
)

func main() { cli.Main("profile", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("profile", stderr)
	appName := fs.String("app", "C1", "case-study application")
	gran := fs.Int("granularity", 1, "Tw grid step (1 = exact)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	a, err := plants.ByName(*appName)
	if err != nil {
		return err
	}
	p, err := switching.Compute(plants.SwitchingPlant(a), switching.Config{TwGranularity: *gran})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (h = %.0f ms, J* = %d samples, r = %d samples, Tw granularity %d)\n",
		p.Name, plants.H*1000, p.JStar, p.R, p.Granularity)
	fmt.Fprintf(stdout, "  JT  = %d samples (%.2f s)\n", p.JT, float64(p.JT)*plants.H)
	fmt.Fprintf(stdout, "  JE  = %d samples (%.2f s)\n", p.JE, float64(p.JE)*plants.H)
	fmt.Fprintf(stdout, "  T*w = %d samples\n", p.TwStar)
	fmt.Fprintf(stdout, "  Tdw− = %s\n", textplot.IntsCSV(p.TdwMinus))
	fmt.Fprintf(stdout, "  Tdw+ = %s\n", textplot.IntsCSV(p.TdwPlus))
	rleM, rleP := switching.EncodeRLE(p.TdwMinus), switching.EncodeRLE(p.TdwPlus)
	fmt.Fprintf(stdout, "  RLE storage: %d + %d runs (vs %d + %d plain entries)\n",
		rleM.Words(), rleP.Words(), len(p.TdwMinus), len(p.TdwPlus))
	if pr, ok := plants.PaperTable1[p.Name]; ok && *gran == 1 {
		fmt.Fprintf(stdout, "  paper: JT=%d JE=%d T*w=%d\n", pr.JT, pr.JE, pr.TwStar)
	}
	return nil
}

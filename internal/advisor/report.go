package advisor

import (
	"fmt"
	"io"

	"dsprof/internal/analyzer"
)

// The "advice" report plugs into the analyzer's report registry, so it
// renders byte-identically through every consumer — erprint command
// tokens, profd's HTTP report endpoint, and the dsadvise CLI all
// dispatch through analyzer.Render.
func init() {
	analyzer.RegisterReport(analyzer.RegisteredReport{
		Name: "advice",
		Desc: "ranked data-layout recommendations (reorder/split/pad)",
		Text: renderAdvice,
		JSON: adviceJSON,
	})
	analyzer.RegisterReport(analyzer.RegisteredReport{
		Name: "pool-advice",
		Desc: "allocation-site split-pool recommendations (needs provenance)",
		Text: renderPoolAdvice,
		JSON: poolAdviceJSON,
	})
}

// reportOptions maps the generic render options onto advisor options.
// TopN caps the recommendation list, with the dispatcher's default like
// the other top-N reports; sort order is ignored — recommendations are
// always ranked by score on the advisor's auto-picked metric, so the
// report does not change shape with the caller's sort flag.
func reportOptions(opts analyzer.RenderOpts) Options {
	o := Options{}.withDefaults()
	o.MaxRecs = opts.TopN
	return o
}

func renderAdvice(a *analyzer.Analyzer, w io.Writer, arg string, opts analyzer.RenderOpts) error {
	adv, err := Analyze(a, reportOptions(opts))
	if err != nil {
		return err
	}
	WriteAdvice(w, adv)
	return nil
}

func adviceJSON(a *analyzer.Analyzer, arg string, opts analyzer.RenderOpts) (any, error) {
	adv, err := Analyze(a, reportOptions(opts))
	if err != nil {
		return nil, err
	}
	return adv, nil
}

// poolAnalyze runs the advisor with site pools on and keeps only the
// split-pool recommendations: the "pool-advice" report is the
// object-centric view, the classic "advice" report stays provenance-free
// (and therefore byte-identical whether or not provenance was
// collected).
func poolAnalyze(a *analyzer.Analyzer, opts analyzer.RenderOpts) (*Advice, error) {
	o := reportOptions(opts)
	o.SitePools = true
	o.MaxRecs = 0 // cap after filtering, not before
	adv, err := Analyze(a, o)
	if err != nil {
		return nil, err
	}
	pools := adv.Recs[:0:0]
	for _, r := range adv.Recs {
		if r.Kind == KindSplitPool {
			pools = append(pools, r)
		}
	}
	if len(pools) > opts.TopN {
		pools = pools[:opts.TopN]
	}
	adv.Recs = pools
	return adv, nil
}

func renderPoolAdvice(a *analyzer.Analyzer, w io.Writer, arg string, opts analyzer.RenderOpts) error {
	adv, err := poolAnalyze(a, opts)
	if err != nil {
		return err
	}
	WriteAdvice(w, adv)
	return nil
}

func poolAdviceJSON(a *analyzer.Analyzer, arg string, opts analyzer.RenderOpts) (any, error) {
	return poolAnalyze(a, opts)
}

// WriteAdvice renders the advice as text, one ranked block per
// recommendation.
func WriteAdvice(w io.Writer, adv *Advice) {
	fmt.Fprintf(w, "Data-layout advice (metric %s, window %d, min share %.0f%%): %d recommendation(s)\n",
		adv.Metric, adv.Window, 100*adv.MinShare, len(adv.Recs))
	for i := range adv.Recs {
		r := &adv.Recs[i]
		fmt.Fprintf(w, "\n%2d. %-7s struct %s  score %.4f  (%.1f%% of %s, %d bytes)\n",
			i+1, r.Kind, r.Struct, r.Score, 100*r.Share, adv.Metric, r.Size)
		fmt.Fprintf(w, "    %s\n", r.Rationale)
		switch r.Kind {
		case KindReorder:
			fmt.Fprintf(w, "    order: %s\n", joinNames(r.Order))
		case KindSplit:
			fmt.Fprintf(w, "    hot:  %s\n", joinNames(r.Hot))
			fmt.Fprintf(w, "    cold: %s\n", joinNames(r.Cold))
		case KindPad:
			fmt.Fprintf(w, "    pad: %d -> %d bytes\n", r.Size, r.PadTo)
		case KindSplitPool:
			for _, s := range r.Sites {
				mark := "keep"
				if s.Hot {
					mark = "pool"
				}
				fmt.Fprintf(w, "    %s  %-44s %6d alloc(s) %10d bytes  %10d (%.1f%%)\n",
					mark, s.Site, s.Allocs, s.Bytes, s.Count, 100*s.Share)
			}
		}
	}
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

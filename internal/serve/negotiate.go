package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// negotiateMetrics resolves the /metricz response format (DESIGN.md
// §17) and reports whether it is OpenMetrics; otherwise it is JSON.
//
//  1. An explicit ?format= query wins outright: "json" or
//     "openmetrics". Any other value is a typed 400 — a misspelled or
//     retired format must not silently fall back to a different syntax.
//  2. Otherwise the reply is OpenMetrics when the Accept header lists
//     application/openmetrics-text with a q other than 0, as a stock
//     Prometheus scrape does, and JSON in every other case. An element
//     with a malformed q is ignored.
func negotiateMetrics(format, accept string) (bool, *Error) {
	switch format {
	case "json":
		return false, nil
	case "openmetrics":
		return true, nil
	case "":
	default:
		return false, &Error{Kind: ErrBadRequest,
			Msg: fmt.Sprintf("unknown format %q (want json or openmetrics)", format)}
	}
	for _, elem := range strings.Split(accept, ",") {
		mt, params, _ := strings.Cut(elem, ";")
		if !strings.EqualFold(strings.TrimSpace(mt), "application/openmetrics-text") {
			continue
		}
		q := 1.0
		for _, p := range strings.Split(params, ";") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				var err error
				if q, err = strconv.ParseFloat(rest, 64); err != nil || q > 1 {
					q = 0 // malformed q: ignore the element
				}
			}
		}
		if q > 0 {
			return true, nil
		}
	}
	return false, nil
}

package cqapprox

import (
	"errors"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/eval"
)

// The typed error taxonomy. All long-running entry points wrap one of
// these sentinels, so callers branch with errors.Is instead of string
// matching:
//
//	p, err := engine.Prepare(ctx, q, cqapprox.TW(1))
//	switch {
//	case errors.Is(err, cqapprox.ErrCanceled):        // ctx expired
//	case errors.Is(err, cqapprox.ErrBudgetExceeded):  // raise Options.MaxVars
//	case errors.Is(err, cqapprox.ErrNotInClass):      // no C-query ⊆ q
//	}
var (
	// ErrCanceled: the context expired before the search or evaluation
	// finished. errors.Is also matches the context's own cause
	// (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = cqerr.ErrCanceled

	// ErrBudgetExceeded: the input query exceeds Options.MaxVars; the
	// Bell-number search was refused rather than risking a
	// super-exponential run.
	ErrBudgetExceeded = cqerr.ErrBudgetExceeded

	// ErrNotInClass: no query of the requested class is contained in
	// the input (possible only for incompatible head arities).
	ErrNotInClass = cqerr.ErrNotInClass

	// ErrCountOverflow: an exact answer count does not fit in uint64.
	ErrCountOverflow = eval.ErrCountOverflow

	// ErrBadOrder: a WithOrder variable is not a distinct head variable
	// of the query. The wrapping error names the offending variable.
	ErrBadOrder = errors.New("cqapprox: order variable is not a head variable")
)

// ParseError is the positional syntax error returned by Parse: Offset
// is a byte offset into the input, Line and Col are 1-based. Obtain it
// with errors.As:
//
//	var perr *cqapprox.ParseError
//	if errors.As(err, &perr) { fmt.Println(perr.Line, perr.Col) }
type ParseError = cq.ParseError

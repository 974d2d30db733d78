// Package tightcps reproduces and scales up "Tighter Dimensioning of
// Heterogeneous Multi-Resource Autonomous CPS with Control Performance
// Guarantees" (DAC 2019): offline switching analysis of control
// applications that borrow a shared time-triggered slot after
// disturbances, exact model checking of slot sharing, and first-fit slot
// dimensioning.
//
// The root package carries the benchmark suite regenerating every paper
// artefact; the implementation lives under internal/ (start at
// internal/core, the library facade) and the executables under cmd/.
// README.md maps the packages; DESIGN.md documents the concurrent engine
// and the one-word packed state of the verifier.
package tightcps

package tlevelindex

import (
	"errors"

	"tlevelindex/internal/index"
)

// Sentinel errors returned by the public API. Callers branch on them with
// errors.Is; the serve package maps them to HTTP statuses.
var (
	// ErrInvalidWeights reports a malformed weight vector: wrong length,
	// negative entries, or weights that do not sum to one. All validation
	// failures of full weight vectors wrap this sentinel.
	ErrInvalidWeights = errors.New("tlevelindex: invalid weight vector")

	// ErrBeyondTau reports a query whose depth k exceeds τ, the depth the
	// index was built (or last extended) to. Queries only read the index;
	// ExtendTau is the way to deepen it.
	ErrBeyondTau = index.ErrBeyondTau

	// ErrNeedsFullData reports an ExtendTau on an index that holds no
	// reference to its full dataset (it was loaded with ReadIndex or
	// OpenIndexFile, or built WithoutFullData): the options that rank below
	// τ everywhere were never kept, so the deeper levels cannot be built.
	// The index is left unchanged.
	ErrNeedsFullData = index.ErrNeedsFullData

	// ErrBadFormat reports a corrupt or foreign serialized index stream:
	// every ReadIndex / ReadIndexBytes / OpenIndexFile failure caused by
	// the stream's content (truncation, bit rot, checksum mismatch,
	// structural nonsense) wraps it.
	ErrBadFormat = index.ErrBadFormat
)

// Reader for the .prof files written by MPI_M_flush / MPI_M_rootflush,
// used by the profview CLI and by tests that round-trip flushed data.
#pragma once

#include <string>
#include <vector>

#include "support/matrix.h"

namespace mpim::tools {

/// One per-rank flush file (MPI_M_flush): rows of "peer count bytes".
struct RankProfile {
  int rank = -1;
  int comm_size = 0;
  std::string flags;
  std::vector<unsigned long> counts;
  std::vector<unsigned long> sizes;
};

/// Parses "<base>.<rank>.prof". Throws mpim::Error on malformed input.
RankProfile read_rank_profile(const std::string& path);

/// What MPI_M_rootflush writes in every cell of a contributor's row that
/// the gather lost (MPI_M_DATA_MISSING, 18446744073709551615).
inline constexpr unsigned long kMissingCell = ~0ul;

/// Parses a rootflush matrix file ("<base>_counts.<rank>.prof" or
/// "<base>_sizes.<rank>.prof"). A lost contributor's row reads as
/// kMissingCell in every cell; a row that mixes kMissingCell with counts
/// is rejected, naming the file and line.
CommMatrix read_matrix_profile(const std::string& path);

/// True when row `i` of `m` holds kMissingCell: a lost contributor's row,
/// which carries no counts.
bool missing_row(const CommMatrix& m, std::size_t i);

/// Human summary of a matrix: total volume, heaviest sender/receiver
/// pair, fraction of non-zero entries. Missing rows are listed and left
/// out of everything else.
struct MatrixSummary {
  unsigned long total = 0;
  std::size_t heaviest_src = 0;
  std::size_t heaviest_dst = 0;
  unsigned long heaviest_value = 0;
  double density = 0.0;  ///< non-zero off-diagonal fraction
  std::vector<std::size_t> missing_rows;  ///< ascending
};
MatrixSummary summarize(const CommMatrix& m);

}  // namespace mpim::tools

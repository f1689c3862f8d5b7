#include "core/options.h"

namespace zsky {

std::string_view PartitioningSchemeName(PartitioningScheme s) {
  switch (s) {
    case PartitioningScheme::kRandom:
      return "random";
    case PartitioningScheme::kGrid:
      return "grid";
    case PartitioningScheme::kAngle:
      return "angle";
    case PartitioningScheme::kQuadTree:
      return "quadtree";
    case PartitioningScheme::kNaiveZ:
      return "naive-z";
    case PartitioningScheme::kZhg:
      return "zhg";
    case PartitioningScheme::kZdg:
      return "zdg";
  }
  return "unknown";
}

std::string_view LocalAlgorithmName(LocalAlgorithm a) {
  switch (a) {
    case LocalAlgorithm::kSortBased:
      return "sb";
    case LocalAlgorithm::kZSearch:
      return "zs";
    case LocalAlgorithm::kBbs:
      return "bbs";
  }
  return "unknown";
}

std::string_view MergeAlgorithmName(MergeAlgorithm m) {
  switch (m) {
    case MergeAlgorithm::kSortBased:
      return "sb";
    case MergeAlgorithm::kZSearch:
      return "zs";
    case MergeAlgorithm::kZMerge:
      return "zm";
    case MergeAlgorithm::kPrefixProbe:
      return "pp";
  }
  return "unknown";
}

std::string ExecutorOptions::Label() const {
  std::string label(PartitioningSchemeName(partitioning));
  label += '+';
  label += LocalAlgorithmName(local);
  label += '+';
  label += MergeAlgorithmName(merge);
  return label;
}

}  // namespace zsky

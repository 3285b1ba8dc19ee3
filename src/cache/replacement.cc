#include "replacement.hh"

namespace llcf {

const char *
replKindName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::LRU:
        return "LRU";
      case ReplKind::TreePLRU:
        return "TreePLRU";
      case ReplKind::SRRIP:
        return "SRRIP";
      case ReplKind::Random:
        return "Random";
    }
    return "?";
}

} // namespace llcf

#include "replacement.hh"

#include "common/options.hh"

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

bool
parseReplKind(const std::string &name, ReplKind &out)
{
    for (ReplKind kind : kAllReplKinds) {
        if (equalsIgnoreCase(name, replKindName(kind))) {
            out = kind;
            return true;
        }
    }
    return false;
}

} // namespace llcf

// Tables 1(a), 1(b), 2(a), 2(b) — regenerates the paper's four rule tables
// from the implementation.
#include <cstdio>

#include "core/mode.hpp"

namespace {

using namespace hlock;

void print_tables() {
  const Mode all[] = {Mode::kNone, Mode::kIR, Mode::kR,
                      Mode::kU,    Mode::kIW, Mode::kW};

  std::printf("Table 1(a) incompatibility (X = conflict):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : kRealModes) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes)
      std::printf("%4s", compatible(m1, m2) ? "." : "X");
    std::printf("\n");
  }

  std::printf("\nTable 1(b) no-child-grant (X = cannot grant):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : all) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes)
      std::printf("%4s", child_grantable(m1, m2) ? "." : "X");
    std::printf("\n");
  }

  std::printf("\nTable 2(a) queue (Q) / forward (F):\n      ");
  for (const Mode m2 : kRealModes) std::printf("%4s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : all) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes) {
      std::printf("%4s", queue_or_forward(m1, m2) == PendingAction::kQueue
                             ? "Q"
                             : "F");
    }
    std::printf("\n");
  }

  std::printf("\nTable 2(b) frozen modes at the token node:\n      ");
  for (const Mode m2 : kRealModes) std::printf("%14s", to_string(m2));
  std::printf("\n");
  for (const Mode m1 : kRealModes) {
    std::printf("%4s  ", to_string(m1));
    for (const Mode m2 : kRealModes) {
      const ModeSet f = frozen_for(m1, m2);
      std::printf("%14s", compatible(m1, m2) ? "-" : f.to_string().c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_tables();
  return 0;
}

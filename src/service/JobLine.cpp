//===- service/JobLine.cpp - calibro-compiled job-line parser -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "service/JobLine.h"
#include "support/NumericArgs.h"

#include <sstream>

using namespace calibro;
using namespace calibro::service;

bool service::parseJobLine(const std::string &Line, JobLine &J) {
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok) {
    auto Eq = Tok.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string K = Tok.substr(0, Eq), V = Tok.substr(Eq + 1);
    if (K == "app") {
      J.AppName = V;
    } else if (K == "scale") {
      auto Scale = support::parsePositive(V);
      if (!Scale)
        return false;
      J.Scale = *Scale;
    } else if (K == "seed" || K == "budget") {
      auto N = support::parseUnsigned(V);
      if (!N)
        return false;
      (K == "seed" ? J.Seed : J.BudgetBytes) = *N;
    } else if (K == "out") {
      J.Out = V;
    } else {
      return false;
    }
  }
  return !J.AppName.empty() && !J.Out.empty();
}

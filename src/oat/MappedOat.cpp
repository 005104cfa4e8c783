//===- oat/MappedOat.cpp - Zero-copy OAT file reader ----------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "oat/MappedOat.h"

#include "oat/Serialize.h"

using namespace calibro;
using namespace calibro::oat;

Expected<MappedOat> MappedOat::open(const std::string &Path) {
  auto M = support::MappedFile::open(Path);
  if (!M)
    return makeError("cannot open '" + Path + "'");
  return MappedOat(std::move(*M));
}

Expected<OatFile> MappedOat::parse() const {
  return deserializeOat(Map.bytes());
}

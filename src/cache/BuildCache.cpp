//===- cache/BuildCache.cpp - On-disk incremental build cache -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "cache/BuildCache.h"

#include "codegen/SideInfoValidator.h"
#include "oat/Serialize.h"
#include "support/BinaryStream.h"
#include "support/MappedFile.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>
#include <system_error>

using namespace calibro;
using namespace calibro::cache;

namespace fs = std::filesystem;

namespace {

constexpr uint32_t MethodBlobMagic = 0x31424d43;  // "CMB1"
constexpr uint32_t GroupBlobMagic = 0x31424743;   // "CGB1"
constexpr std::size_t ChecksumBytes = 16;

/// Guards against runaway counts in corrupt varint headers before any
/// allocation is sized from them.
constexpr uint64_t MaxReasonableCount = 1u << 28;

std::string versionStamp() {
  return "calibro-cache " + std::to_string(CacheFormatVersion) + "\n";
}

Digest payloadChecksum(std::span<const uint8_t> Buf, std::size_t End) {
  Hasher H;
  // 8 bytes per word keeps checksumming cheap relative to file I/O.
  uint64_t Acc = 0;
  unsigned N = 0;
  for (std::size_t I = 0; I < End; ++I) {
    Acc |= static_cast<uint64_t>(Buf[I]) << (8 * N);
    if (++N == 8) {
      H.u64(Acc);
      Acc = 0;
      N = 0;
    }
  }
  if (N)
    H.u64(Acc);
  H.u64(End);
  return H.finish();
}

std::optional<std::vector<uint8_t>> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  if (!In.good() && !In.eof())
    return std::nullopt;
  return Bytes;
}

/// Writes \p Bytes to \p Path via a unique sibling temp file + rename, so a
/// reader never sees a partial entry and concurrent writers of the same key
/// race benignly (both contents are identical by construction).
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes) {
  static std::atomic<uint64_t> TempCounter{0};
  std::string Tmp = Path + ".tmp." +
                    std::to_string(TempCounter.fetch_add(1)) + "." +
                    std::to_string(static_cast<uint64_t>(
                        reinterpret_cast<uintptr_t>(&TempCounter) >> 4));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good())
      return false;
  }
  std::error_code Ec;
  fs::rename(Tmp, Path, Ec);
  if (Ec) {
    fs::remove(Tmp, Ec);
    return false;
  }
  return true;
}

/// Seals a blob: verifies magic + version + trailing checksum and returns
/// the payload span (between the 8-byte header and the checksum trailer).
/// Span in, span out — the caller hands the mmap'd file image straight in
/// and decodes straight out of it; no copy anywhere on the load path.
std::optional<std::span<const uint8_t>>
openBlob(std::span<const uint8_t> Bytes, uint32_t Magic) {
  if (Bytes.size() < 8 + ChecksumBytes)
    return std::nullopt;
  ByteReader R(Bytes);
  auto GotMagic = R.u32();
  auto GotVersion = R.u32();
  if (!GotMagic || !GotVersion || *GotMagic != Magic ||
      *GotVersion != CacheFormatVersion)
    return std::nullopt;
  std::size_t PayloadEnd = Bytes.size() - ChecksumBytes;
  Digest Want = payloadChecksum(Bytes, PayloadEnd);
  uint64_t GotLo = 0, GotHi = 0;
  std::memcpy(&GotLo, Bytes.data() + PayloadEnd, 8);
  std::memcpy(&GotHi, Bytes.data() + PayloadEnd + 8, 8);
  if (GotLo != Want.Lo || GotHi != Want.Hi)
    return std::nullopt;
  return std::span<const uint8_t>(Bytes.data() + 8, PayloadEnd - 8);
}

/// Appends header + payload checksum around \p Payload.
std::vector<uint8_t> sealBlob(uint32_t Magic, std::vector<uint8_t> Payload) {
  ByteWriter W;
  W.u32(Magic);
  W.u32(CacheFormatVersion);
  W.bytes(Payload.data(), Payload.size());
  std::vector<uint8_t> Out = W.take();
  Digest Sum = payloadChecksum(Out, Out.size());
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Sum.Lo >> (8 * I)));
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<uint8_t>(Sum.Hi >> (8 * I)));
  return Out;
}

std::vector<uint8_t> encodeMethodBlob(const codegen::CompiledMethod &M,
                                      uint32_t HirInsnsSimplified) {
  ByteWriter W;
  W.uleb(M.MethodIdx);
  W.str(M.Name);
  W.uleb(HirInsnsSimplified);
  W.uleb(M.Code.size());
  for (uint32_t Word : M.Code)
    W.u32(Word);
  W.uleb(M.Relocs.size());
  for (const codegen::Relocation &R : M.Relocs) {
    W.uleb(R.Offset / 4);
    W.u8(static_cast<uint8_t>(R.Kind));
    W.uleb(R.TargetId);
  }
  oat::putStackMap(W, M.Map);
  oat::putSideInfo(W, M.Side);
  return W.take();
}

std::optional<CachedMethod> decodeMethodBlob(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  CachedMethod CM;
  codegen::CompiledMethod &M = CM.Method;

  auto Idx = R.uleb();
  if (!Idx)
    return std::nullopt;
  M.MethodIdx = static_cast<uint32_t>(*Idx);
  auto Name = R.str();
  if (!Name)
    return std::nullopt;
  M.Name = std::move(*Name);
  auto Simplified = R.uleb();
  if (!Simplified)
    return std::nullopt;
  CM.HirInsnsSimplified = static_cast<uint32_t>(*Simplified);

  auto NumWords = R.uleb();
  if (!NumWords || *NumWords > MaxReasonableCount)
    return std::nullopt;
  M.Code.resize(static_cast<std::size_t>(*NumWords));
  for (uint32_t &Word : M.Code) {
    auto V = R.u32();
    if (!V)
      return std::nullopt;
    Word = *V;
  }

  auto NumRelocs = R.uleb();
  if (!NumRelocs || *NumRelocs > MaxReasonableCount)
    return std::nullopt;
  M.Relocs.reserve(static_cast<std::size_t>(*NumRelocs));
  for (uint64_t K = 0; K < *NumRelocs; ++K) {
    auto Off = R.uleb();
    auto Kind = R.u8();
    auto Target = R.uleb();
    if (!Off || !Kind || !Target)
      return std::nullopt;
    // Compiled-method blobs are stored straight out of codegen, before the
    // link-time outliner runs — only CTO stub relocations can exist. The
    // stub id space is pre-registered in a fixed order by the code
    // generator, which is what makes the ids content-stable across builds
    // (and hence cacheable at all).
    if (*Kind != static_cast<uint8_t>(codegen::RelocKind::CtoStub))
      return std::nullopt;
    codegen::Relocation Rel;
    Rel.Offset = static_cast<uint32_t>(*Off) * 4;
    Rel.Kind = codegen::RelocKind::CtoStub;
    Rel.TargetId = static_cast<uint32_t>(*Target);
    if (Rel.Offset + 4 > M.codeSizeBytes())
      return std::nullopt;
    M.Relocs.push_back(Rel);
  }

  if (auto E = oat::parseStackMap(R, M.Map)) {
    consumeError(std::move(E));
    return std::nullopt;
  }
  if (auto E = oat::parseSideInfo(R, M.Side)) {
    consumeError(std::move(E));
    return std::nullopt;
  }
  if (R.remaining() != 0)
    return std::nullopt;

  // The load boundary is where trust is established: everything the
  // outliner and linker assume about side info is re-checked here, exactly
  // as it is for methods deserialized from an OAT file.
  if (codegen::validateSideInfo(M))
    return std::nullopt;
  return CM;
}

std::vector<uint8_t> encodeGroupBlob(const GroupSelections &G) {
  ByteWriter W;
  W.uleb(G.Funcs.size());
  for (const CachedSelection &S : G.Funcs) {
    W.uleb(S.SeqLen);
    W.uleb(S.Benefit);
    W.uleb(S.Positions.size());
    uint32_t Prev = 0;
    for (uint32_t P : S.Positions) {
      W.uleb(P - Prev); // Ascending by construction; deltas stay small.
      Prev = P;
    }
  }
  return W.take();
}

std::optional<GroupSelections>
decodeGroupBlob(std::span<const uint8_t> Bytes) {
  ByteReader R(Bytes);
  GroupSelections G;
  auto NumFuncs = R.uleb();
  if (!NumFuncs || *NumFuncs > MaxReasonableCount)
    return std::nullopt;
  G.Funcs.reserve(static_cast<std::size_t>(*NumFuncs));
  for (uint64_t K = 0; K < *NumFuncs; ++K) {
    CachedSelection S;
    auto Len = R.uleb();
    auto Ben = R.uleb();
    auto NumPos = R.uleb();
    if (!Len || !Ben || !NumPos || *Len == 0 || *NumPos == 0 ||
        *NumPos > MaxReasonableCount)
      return std::nullopt;
    S.SeqLen = static_cast<uint32_t>(*Len);
    S.Benefit = *Ben;
    S.Positions.reserve(static_cast<std::size_t>(*NumPos));
    uint32_t Pos = 0;
    for (uint64_t J = 0; J < *NumPos; ++J) {
      auto Delta = R.uleb();
      if (!Delta)
        return std::nullopt;
      if (J > 0 && *Delta == 0)
        return std::nullopt; // Positions must be strictly ascending.
      Pos += static_cast<uint32_t>(*Delta);
      S.Positions.push_back(Pos);
    }
    G.Funcs.push_back(std::move(S));
  }
  if (R.remaining() != 0)
    return std::nullopt;
  return G;
}

/// Index key of one entry: the kind tag ('m'/'g') + the digest hex. Method
/// and group entries share one recency ranking: the budget bounds their
/// sum, so they compete.
std::string entryKey(char Kind, const Digest &Key) {
  return std::string(1, Kind) + Key.hex();
}

/// The fan-out directory names: one per leading hex digit of a key.
constexpr char HexDigits[] = "0123456789abcdef";

/// <dir>/<kind>/<first digit>/<digest hex>.bin, built in one allocation
/// (every cache probe builds one).
std::string blobPath(const std::string &Dir, char Kind, std::string_view Hex) {
  std::string P;
  P.reserve(Dir.size() + Hex.size() + 9);
  P.append(Dir).append({'/', Kind, '/', Hex[0], '/'}).append(Hex);
  return P.append(".bin");
}

/// On-disk path of the entry \p K names in the store at \p Dir.
std::string entryPath(const std::string &Dir, const std::string &K) {
  return blobPath(Dir, K[0], std::string_view(K).substr(1));
}

uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t N = fs::file_size(Path, Ec);
  return Ec ? 0 : N;
}

/// Every blob in the store at \p Dir as (entry key, bytes), in key order.
std::vector<std::pair<std::string, uint64_t>>
listEntries(const std::string &Dir) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  std::error_code Ec;
  for (char Kind : {'m', 'g'})
    for (const auto &E :
         fs::recursive_directory_iterator(Dir + "/" + Kind, Ec)) {
      std::error_code SizeEc;
      if (!E.is_regular_file(SizeEc) || E.path().extension() != ".bin")
        continue;
      uint64_t Bytes = E.file_size(SizeEc);
      Out.emplace_back(std::string(1, Kind) + E.path().stem().string(),
                       SizeEc ? 0 : Bytes);
    }
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

/// The resident index of a budgeted store: every entry's size and last
/// touch, behind one mutex. Ticks are unique, so the recency order has no
/// ties; adoption hands them out in key order.
struct BuildCache::ResidentIndex {
  struct Entry {
    uint64_t Bytes = 0;
    uint64_t Tick = 0;
  };

  std::mutex M;
  std::map<std::string, Entry> Entries;
  /// Tick -> entry key, least recently touched first.
  std::map<uint64_t, std::string> ByTick;
  uint64_t Bytes = 0;
  uint64_t Clock = 0;
  uint64_t Evictions = 0;
  uint64_t EvictedBytes = 0;

  /// Enters, resizes or touches the entry \p K: it becomes the most
  /// recently touched.
  void put(const std::string &K, uint64_t EntryBytes) {
    auto [It, Inserted] = Entries.try_emplace(K);
    if (!Inserted) {
      Bytes -= It->second.Bytes;
      ByTick.erase(It->second.Tick);
    }
    It->second = Entry{EntryBytes, Clock++};
    ByTick.emplace(It->second.Tick, K);
    Bytes += EntryBytes;
  }

  void erase(std::map<std::string, Entry>::iterator It) {
    Bytes -= It->second.Bytes;
    ByTick.erase(It->second.Tick);
    Entries.erase(It);
  }

  /// Unlinks least-recently-touched entries of the store at \p Dir until
  /// the whole store fits \p Budget. Caller holds M.
  void evictTo(const std::string &Dir, uint64_t Budget) {
    while (Bytes > Budget && !ByTick.empty()) {
      auto It = Entries.find(ByTick.begin()->second);
      std::error_code Ec;
      fs::remove(entryPath(Dir, It->first), Ec);
      ++Evictions;
      EvictedBytes += It->second.Bytes;
      erase(It);
    }
  }
};

BuildCache::BuildCache(std::string Root) : Root(std::move(Root)) {}

BuildCache::~BuildCache() = default;

std::string BuildCache::methodPath(const Digest &Key) const {
  return blobPath(Root, 'm', Key.hex());
}

std::string BuildCache::groupPath(const Digest &Key) const {
  return blobPath(Root, 'g', Key.hex());
}

Expected<std::unique_ptr<BuildCache>>
BuildCache::open(const std::string &Dir, uint64_t BudgetBytes) {
  std::string StampPath = Dir + "/VERSION";
  std::string Want = versionStamp();
  bool Stamped = false;
  if (auto Bytes = readFileBytes(StampPath))
    Stamped = std::string(Bytes->begin(), Bytes->end()) == Want;

  std::error_code Ec;
  if (!Stamped) {
    // Unknown or version-skewed store (an older layout included): empty it
    // rather than risk misreading entries this build does not speak.
    for (const char *Sub : {"/m", "/g"})
      fs::remove_all(Dir + Sub, Ec);
  }
  for (const char *Sub : {"/m/", "/g/"})
    for (char Digit : std::string_view(HexDigits)) {
      std::string FanDir = Dir + Sub + Digit;
      fs::create_directories(FanDir, Ec);
      if (Ec)
        return makeError("cache: cannot create " + FanDir + ": " +
                         Ec.message());
    }
  if (!Stamped) {
    std::vector<uint8_t> StampBytes(Want.begin(), Want.end());
    if (!writeFileAtomic(StampPath, StampBytes))
      return makeError("cache: cannot stamp " + StampPath);
  }
  std::unique_ptr<BuildCache> C(new BuildCache(Dir));
  if (BudgetBytes) {
    // Adopt what the store already holds (a daemon restart reuses the
    // fleet cache), then trim so the bound holds from the first operation.
    C->Budget = BudgetBytes;
    C->Index = std::make_unique<ResidentIndex>();
    for (const auto &[K, Bytes] : listEntries(Dir))
      C->Index->put(K, Bytes);
    C->Index->evictTo(Dir, BudgetBytes);
  }
  return C;
}

void BuildCache::touch(char Kind, const Digest &Key, bool Hit) const {
  if (Kind == 'm')
    (Hit ? MethodHits : MethodMisses).fetch_add(1);
  else
    (Hit ? GroupHits : GroupMisses).fetch_add(1);
  if (!Hit || !Index)
    return;
  std::lock_guard<std::mutex> Lock(Index->M);
  auto It = Index->Entries.find(entryKey(Kind, Key));
  if (It != Index->Entries.end())
    Index->put(It->first, It->second.Bytes);
}

void BuildCache::recordStore(char Kind, const Digest &Key) const {
  if (!Index)
    return;
  std::string K = entryKey(Kind, Key);
  std::lock_guard<std::mutex> Lock(Index->M);
  // Sized under the lock, where every eviction runs: an eviction that
  // unlinked the new blob first makes the stat miss, so the index never
  // names a missing file.
  uint64_t Bytes = fileBytes(entryPath(Root, K));
  if (Bytes == 0) {
    // Best-effort store failed; whatever the index held is gone too.
    if (auto It = Index->Entries.find(K); It != Index->Entries.end())
      Index->erase(It);
    return;
  }
  Index->put(K, Bytes);
  Index->evictTo(Root, Budget);
}

std::optional<CachedMethod> BuildCache::loadMethod(const Digest &Key) const {
  // Zero-copy load: checksum and decode straight out of the mapping. The
  // decoded CachedMethod owns its data, so the mapping's scope ends here.
  std::optional<CachedMethod> CM;
  if (auto Map = support::MappedFile::open(methodPath(Key)))
    if (auto Payload = openBlob(Map->bytes(), MethodBlobMagic))
      CM = decodeMethodBlob(*Payload);
  touch('m', Key, CM.has_value());
  return CM;
}

void BuildCache::storeMethod(const Digest &Key,
                             const codegen::CompiledMethod &M,
                             uint32_t HirInsnsSimplified) const {
  writeFileAtomic(methodPath(Key),
                  sealBlob(MethodBlobMagic,
                           encodeMethodBlob(M, HirInsnsSimplified)));
  recordStore('m', Key);
}

std::optional<GroupSelections> BuildCache::loadGroup(const Digest &Key) const {
  std::optional<GroupSelections> G;
  if (auto Map = support::MappedFile::open(groupPath(Key)))
    if (auto Payload = openBlob(Map->bytes(), GroupBlobMagic))
      G = decodeGroupBlob(*Payload);
  touch('g', Key, G.has_value());
  return G;
}

void BuildCache::storeGroup(const Digest &Key,
                            const GroupSelections &G) const {
  writeFileAtomic(groupPath(Key), sealBlob(GroupBlobMagic, encodeGroupBlob(G)));
  recordStore('g', Key);
}

CacheAudit BuildCache::auditDir(const std::string &Dir) {
  CacheAudit A;
  auto Stamp = readFileBytes(Dir + "/VERSION");
  A.Stamped = Stamp && std::string(Stamp->begin(), Stamp->end()) ==
                           versionStamp();
  for (const auto &[K, Bytes] : listEntries(Dir)) {
    const bool Method = K[0] == 'm';
    ++(Method ? A.MethodEntries : A.GroupEntries);
    A.TotalBytes += Bytes;
    bool Ok = false;
    if (A.Stamped)
      if (auto Map = support::MappedFile::open(entryPath(Dir, K)))
        if (auto Payload = openBlob(Map->bytes(), Method ? MethodBlobMagic
                                                         : GroupBlobMagic))
          Ok = Method ? decodeMethodBlob(*Payload).has_value()
                      : decodeGroupBlob(*Payload).has_value();
    if (!Ok)
      ++(Method ? A.MethodCorrupt : A.GroupCorrupt);
  }
  return A;
}

CacheAudit BuildCache::audit() const { return auditDir(Root); }

CacheStats BuildCache::stats() const {
  CacheStats St;
  St.MethodHits = MethodHits.load();
  St.MethodMisses = MethodMisses.load();
  St.GroupHits = GroupHits.load();
  St.GroupMisses = GroupMisses.load();
  if (Index) {
    std::lock_guard<std::mutex> Lock(Index->M);
    St.Evictions = Index->Evictions;
    St.EvictedBytes = Index->EvictedBytes;
    St.ResidentBytes = Index->Bytes;
    St.ResidentEntries = Index->Entries.size();
    return St;
  }
  for (const auto &[K, Bytes] : listEntries(Root)) {
    ++St.ResidentEntries;
    St.ResidentBytes += Bytes;
  }
  return St;
}

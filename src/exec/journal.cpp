#include "exec/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "exec/wire.hpp"
#include "obs/json.hpp"
#include "rng/xoshiro.hpp"

namespace sci::exec {

namespace {

namespace json = obs::json;

constexpr json::Schema kJournalSchema{"scibench.journal", 4};

/// The member that tells a stop record from a cell record.
constexpr std::string_view kStop = "stop";

constexpr auto header_fields = [](auto& io, auto& fingerprint) {
  io.schema(kJournalSchema);
  io("fingerprint", wire::Hex{fingerprint});
};

constexpr auto cell_fields = [](auto& io, auto& config_index, auto& rep, auto& seed,
                                auto& result) {
  io("cell", config_index);
  io("rep", rep);
  io("seed", wire::Hex{seed});
  io("attempts", result.attempts);
  io.object("result", wire::cell_fields, result);
};

constexpr auto stop_fields = [](auto& io, auto& config_index, auto& stop) {
  io(kStop, config_index);
  io("reps", stop.reps);
  io("reason", stop.reason);
};

/// The fingerprint a version-4 header line carries, or nullopt when the
/// line is no journal header (v1/v2 token headers and foreign files
/// included). Throws std::runtime_error on the header of another
/// version.
std::optional<std::uint64_t> header_fingerprint(const std::string& path,
                                                const std::string& line) {
  std::uint64_t fingerprint = 0;
  try {
    json::Reader(json::parse(line), "CampaignJournal").read(header_fields, fingerprint);
  } catch (const json::VersionError& e) {
    throw std::runtime_error("CampaignJournal: '" + path + "' is a version-" +
                             std::to_string(e.version) + " journal; version " +
                             std::to_string(kJournalSchema.version) +
                             " fingerprints factor levels and "
                             "backend options too, so it cannot resume from it");
  } catch (const std::runtime_error&) {
    // Not JSON, or a field is missing or mistyped: not a journal header.
    return std::nullopt;
  }
  return fingerprint;
}

/// Writes one whole line and flushes it: after a crash the file holds
/// every line whose flush returned plus at most one torn tail.
void write_line(std::FILE* file, const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), file);
  std::fflush(file);
}

std::uint64_t mix_bytes(std::uint64_t state, const std::string& text) {
  state = rng::splitmix64_next(state) ^ text.size();
  for (unsigned char c : text) state = rng::splitmix64_next(state) ^ c;
  return state;
}

}  // namespace

std::uint64_t CampaignJournal::fingerprint(const Campaign& campaign,
                                           const std::string& backend_identity) {
  std::uint64_t state = 0x9a5c1b3a0d2e4f17ULL;
  state = mix_bytes(state, campaign.spec().name);
  state = mix_bytes(state, campaign.experiment().to_header());
  state = mix_bytes(state, backend_identity);
  return rng::splitmix64_next(state);
}

CampaignJournal::CampaignJournal(std::string path, std::uint64_t fingerprint)
    : path_(std::move(path)) {
  // Replay pass: read whatever a previous (possibly killed) run left
  // behind. A line that fails to parse or lacks a field is the torn
  // tail of an interrupted append; it is skipped -- not treated as
  // end-of-records, because a healed journal keeps appending valid
  // records AFTER the scar -- and the resumed run simply re-executes
  // that cell.
  bool has_header = false;
  bool ends_with_newline = true;
  {
    std::ifstream in(path_);
    std::string line;
    while (in && std::getline(in, line)) {
      ends_with_newline = !in.eof();
      if (!has_header) {
        const std::optional<std::uint64_t> fp = header_fingerprint(path_, line);
        if (!fp) {
          throw std::runtime_error("CampaignJournal: '" + path_ +
                                   "' exists but is not a campaign journal");
        }
        if (*fp != fingerprint) {
          throw std::runtime_error(
              "CampaignJournal: '" + path_ +
              "' was written by a different campaign/backend (fingerprint mismatch); "
              "refusing to resume from it");
        }
        has_header = true;
        continue;
      }
      try {
        const json::Value root = json::parse(line);
        std::size_t config_index = 0;
        if (root.find(kStop) != nullptr) {
          StopRecord stop;
          json::Reader(root, "CampaignJournal").read(stop_fields, config_index, stop);
          stops_[config_index] = std::move(stop);
        } else {
          std::size_t rep = 0;
          std::uint64_t seed = 0;
          CellResult result;
          json::Reader(root, "CampaignJournal")
              .read(cell_fields, config_index, rep, seed, result);
          records_[{config_index, rep}] = {seed, std::move(result)};
        }
      } catch (const std::runtime_error&) {
        // The torn tail (or a scar left by an earlier crash): skipped.
      }
    }
  }

  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("CampaignJournal: cannot open '" + path_ +
                             "' for appending: " + std::strerror(errno));
  }
  if (!has_header) {
    write_line(file_, json::write(json::Layout::kLine, header_fields, fingerprint) + "\n");
  } else if (!ends_with_newline) {
    // Heal a torn tail so the next record starts on its own line
    // instead of gluing onto the scar.
    write_line(file_, "\n");
  }
}

CampaignJournal::~CampaignJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

const CellResult* CampaignJournal::find(std::size_t config_index, std::size_t rep,
                                        std::uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find({config_index, rep});
  if (it == records_.end() || it->second.first != seed) return nullptr;
  return &it->second.second;
}

void CampaignJournal::append(std::size_t config_index, std::size_t rep,
                             std::uint64_t seed, const CellResult& result) {
  std::string line;
  line.reserve(160 + result.samples.size() * 20);
  json::Writer(line).write(cell_fields, config_index, rep, seed, result);
  line += '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  write_line(file_, line);
  records_[{config_index, rep}] = {seed, result};
}

const CampaignJournal::StopRecord* CampaignJournal::find_stop(
    std::size_t config_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stops_.find(config_index);
  return it == stops_.end() ? nullptr : &it->second;
}

void CampaignJournal::append_stop(std::size_t config_index, std::size_t reps,
                                  const std::string& reason) {
  const StopRecord stop{reps, reason};
  const std::string line =
      json::write(json::Layout::kLine, stop_fields, config_index, stop) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  write_line(file_, line);
  stops_[config_index] = stop;
}

}  // namespace sci::exec

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

constexpr std::size_t kVersion = 3;

/// The fingerprint a version-3 header line carries, or nullopt when the
/// line is not one (v1/v2 token headers and foreign files included).
std::optional<std::uint64_t> header_fingerprint(const std::string& line) {
  try {
    const json::Value root = json::parse(line);
    if (root.at("schema").as_string() == "scibench.journal" &&
        root.at("version").as_size() == kVersion) {
      return wire::parse_hex_u64(root.at("fingerprint").as_string());
    }
  } catch (const std::runtime_error&) {
    // Not JSON, or a field is missing or mistyped: not a v3 header.
  }
  return std::nullopt;
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
                                           const std::string& backend_name) {
  const CampaignSpec& spec = campaign.spec();
  std::uint64_t state = 0x9a5c1b3a0d2e4f17ULL;
  state = mix_bytes(state, spec.name);
  state = rng::splitmix64_next(state) ^ spec.seed;
  state = rng::splitmix64_next(state) ^ spec.replications;
  state = rng::splitmix64_next(state) ^ campaign.config_count();
  state = mix_bytes(state, backend_name);
  // Sequential campaigns mix the full policy: a journal written under a
  // different CI target / rep bounds would replay into different stop
  // decisions, so it must refuse to resume. Fixed-mode fingerprints
  // do not depend on the policy at all.
  if (spec.stopping.sequential()) state = mix_bytes(state, spec.stopping.describe());
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
        const std::optional<std::uint64_t> fp = header_fingerprint(line);
        if (!fp) {
          throw std::runtime_error("CampaignJournal: '" + path_ +
                                   "' exists but is not a version-3 campaign journal");
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
        if (const json::Value* stop = root.find("stop")) {
          const std::size_t config_index = stop->as_size();
          StopRecord record{root.at("reps").as_size(), root.at("reason").as_string()};
          stops_[config_index] = std::move(record);
        } else {
          const std::size_t config_index = root.at("cell").as_size();
          const std::size_t rep = root.at("rep").as_size();
          const std::uint64_t seed = wire::parse_hex_u64(root.at("seed").as_string());
          CellResult result = wire::cell_result_from_json(root.at("result"));
          result.attempts = root.at("attempts").as_size();
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
    std::string header = "{\"schema\": \"scibench.journal\", \"version\": ";
    header += json::dump_size(kVersion);
    header += ", \"fingerprint\": ";
    json::append_quoted(header, wire::hex_u64(fingerprint));
    header += "}\n";
    write_line(file_, header);
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
  line += "{\"cell\": " + json::dump_size(config_index);
  line += ", \"rep\": " + json::dump_size(rep);
  line += ", \"seed\": ";
  json::append_quoted(line, wire::hex_u64(seed));
  line += ", \"attempts\": " + json::dump_size(result.attempts);
  line += ", \"result\": ";
  wire::append_cell_result(line, result);
  line += "}\n";
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
  std::string line = "{\"stop\": " + json::dump_size(config_index);
  line += ", \"reps\": " + json::dump_size(reps);
  line += ", \"reason\": ";
  json::append_quoted(line, reason);
  line += "}\n";
  std::lock_guard<std::mutex> lock(mutex_);
  write_line(file_, line);
  stops_[config_index] = StopRecord{reps, reason};
}

std::size_t CampaignJournal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

}  // namespace sci::exec

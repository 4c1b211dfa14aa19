#include "bench_util.hpp"

#include <algorithm>
#include <cstdlib>
#include <cinttypes>
#include <exception>
#include <stdexcept>
#include <thread>

#include "engine/pool.hpp"
#include "sim/build_info.hpp"
#include "sim/number.hpp"

namespace wavesim::bench {

void banner(const std::string& id, const std::string& title,
            const std::string& setup) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("%s\n", setup.c_str());
  std::printf("================================================================\n");
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::fprintf(f, "%s%s", c == 0 ? "" : ",", csv_escape(row[c]).c_str());
    }
    std::fprintf(f, "\n");
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  std::fclose(f);
}

void Table::print(const std::string& csv_name) const {
  if (!csv_name.empty()) {
    if (const char* dir = std::getenv("WAVESIM_CSV_DIR"); dir != nullptr) {
      write_csv(std::string(dir) + "/" + csv_name + ".csv");
    }
  }
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%*s", c == 0 ? "" : "  ",
                  static_cast<int>(width[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  std::printf("%s\n", std::string(total > 2 ? total - 2 : total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

sim::JsonValue Table::to_json(const std::string& name) const {
  sim::JsonValue header = sim::JsonValue::array();
  for (const auto& cell : header_) header.push_back(cell);
  sim::JsonValue rows = sim::JsonValue::array();
  for (const auto& row : rows_) {
    sim::JsonValue cells = sim::JsonValue::array();
    for (const auto& cell : row) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return sim::JsonValue::object()
      .set("name", name)
      .set("header", std::move(header))
      .set("rows", std::move(rows));
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt_int(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void require(bool ok, const std::string& message) {
  if (!ok) throw std::runtime_error(message);
}

// -------------------------------------------------------------------- Cli

Cli::Cli(std::string experiment, std::string title)
    : experiment_(std::move(experiment)), title_(std::move(title)),
      start_(std::chrono::steady_clock::now()) {}

bool Cli::parse(int argc, char** argv, const DriverFlag& driver,
                const char* driver_help) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::function<const char*()> value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value for " + arg);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        std::printf(
            "%s -- %s\n\n"
            "  --json <path>     write metrics as JSON "
            "(schema wavesim.bench.v1)\n"
            "  --threads N       worker threads for the sweep "
            "(default: all cores)\n"
            "  --quick           tiny parameters for CI smoke runs\n"
            "  --help            this text\n%s",
            experiment_.c_str(), title_.c_str(), driver_help);
        exit_code_ = 0;
        return false;
      } else if (arg == "--json") {
        json_path_ = value();
      } else if (arg == "--threads") {
        threads_ = sim::parse_number<unsigned>(arg, value());
      } else if (arg == "--quick") {
        quick_ = true;
      } else if (!driver || !driver(arg, value)) {
        throw std::invalid_argument("unknown flag " + arg + " (try --help)");
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", experiment_.c_str(), e.what());
    exit_code_ = 2;
    return false;
  }
  return true;
}

void Cli::report(const Table& table, const std::string& name) {
  table.print(name);
  tables_.push_back(table.to_json(name));
}

void Cli::note(const std::string& key, sim::JsonValue value) {
  extra_.set(key, std::move(value));
}

int Cli::finish(bool ok) {
  if (!json_path_.empty()) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    sim::JsonValue doc =
        sim::JsonValue::object()
            .set("schema", "wavesim.bench.v1")
            .set("experiment", experiment_)
            .set("title", title_)
            .set("generated_by", sim::git_describe())
            .set("threads", engine::resolve_engine_threads(threads_))
            .set("host_threads", std::thread::hardware_concurrency())
            .set("engine", engine_.to_json())
            .set("quick", quick_)
            .set("ok", ok)
            .set("wall_seconds", wall)
            .set("tables", std::move(tables_));
    if (extra_.size() > 0) doc.set("extra", std::move(extra_));
    if (!sim::write_json_file(doc, json_path_)) ok = false;
  }
  return ok ? 0 : 1;
}

int Cli::run(const std::function<bool()>& body) {
  try {
    return finish(body());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", experiment_.c_str(), e.what());
    return 1;
  }
}

}  // namespace wavesim::bench

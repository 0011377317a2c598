/**
 * @file
 * fasp-analyze CLI (see analyze.h for the rule catalogue).
 *
 *   fasp-analyze [options] [path...]        default path: src
 *
 *   --json[=FILE]     machine-readable report (stdout when no FILE)
 *   --werror          warnings fail the run
 *   --sites           dump static PM-store sites as JSON and exit
 *   --diff-metrics=F  check runtime pm_sites (from --metrics JSON)
 *                     against the static SiteScope tags
 *   --list-rules      print rule ids and exit
 *
 * Exit: 0 clean, 1 findings, 2 usage/environment error.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "../common/mini_json.h"
#include "analyze.h"

namespace fs = std::filesystem;
using namespace fasp::analyze;
using fasp::minijson::jsonEscape;

namespace {

struct Options
{
    std::vector<std::string> paths;
    std::string jsonOut; //!< "-" = stdout
    bool emitJson = false;
    bool werror = false;
    bool sites = false;
    std::string diffMetrics;
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

/** Report paths relative to the working directory when possible. */
std::string
reportPath(const std::string &path)
{
    static const std::string cwd = fs::current_path().string() + "/";
    std::string p = path;
    if (p.rfind("./", 0) == 0)
        p = p.substr(2);
    if (p.rfind(cwd, 0) == 0)
        p = p.substr(cwd.size());
    return p;
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h" || ext == ".cpp"
           || ext == ".hpp";
}

std::vector<std::string>
collectFiles(const std::vector<std::string> &paths, std::string &err)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(p, ec))
                if (entry.is_regular_file()
                    && isSourceFile(entry.path()))
                    files.push_back(entry.path().string());
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            err = "no such file or directory: " + p;
            return {};
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

bool
usageError(const std::string &msg)
{
    std::cerr << "fasp-analyze: " << msg
              << " (--help for usage)\n";
    return false;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    auto valueOf = [](const std::string &arg) {
        return arg.substr(arg.find('=') + 1);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: fasp-analyze [options] [path...]\n"
                   "Compile-time persist-ordering verifier; see the\n"
                   "header comment in tools/fasp-analyze/analyze.h\n"
                   "and DESIGN.md section 15 for the rule catalogue.\n";
            std::exit(0);
        } else if (arg == "--list-rules") {
            for (const std::string &r : knownRules())
                std::cout << r << "\n";
            std::exit(0);
        } else if (arg == "--json") {
            opts.emitJson = true;
            opts.jsonOut = "-";
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.emitJson = true;
            opts.jsonOut = valueOf(arg);
        } else if (arg == "--werror") {
            opts.werror = true;
        } else if (arg == "--sites") {
            opts.sites = true;
        } else if (arg.rfind("--diff-metrics=", 0) == 0) {
            opts.diffMetrics = valueOf(arg);
            opts.sites = true;
        } else if (arg.rfind("--", 0) == 0) {
            return usageError("unknown option " + arg);
        } else {
            opts.paths.push_back(arg);
        }
    }
    if (opts.paths.empty())
        opts.paths.push_back("src");
    return true;
}

// --- output ------------------------------------------------------------------

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

void
printFindings(const std::vector<Finding> &findings)
{
    for (const Finding &f : findings) {
        std::cout << reportPath(f.file) << ":" << f.line << ": "
                  << severityName(f.severity) << ": [" << f.rule
                  << "] " << f.message;
        if (!f.function.empty())
            std::cout << " [in " << f.function << "]";
        std::cout << "\n";
    }
}

void
writeJsonReport(const Options &opts, std::size_t files,
                std::size_t functions,
                const std::vector<Finding> &findings,
                std::size_t errors, std::size_t warnings)
{
    std::ostringstream os;
    os << "{\n  \"tool\": \"fasp-analyze\",\n  \"frontend\": "
          "\"internal\",\n  \"files\": "
       << files << ",\n  \"functions\": " << functions
       << ",\n  \"errors\": " << errors << ",\n  \"warnings\": "
       << warnings << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i != 0 ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(reportPath(f.file)) << "\", \"line\": "
           << f.line << ", \"rule\": \"" << jsonEscape(f.rule)
           << "\", \"severity\": \"" << severityName(f.severity)
           << "\", \"function\": \"" << jsonEscape(f.function)
           << "\", \"message\": \"" << jsonEscape(f.message)
           << "\"}";
    }
    os << "\n  ]\n}\n";
    if (opts.jsonOut == "-") {
        std::cout << os.str();
    } else {
        std::ofstream out(opts.jsonOut, std::ios::binary);
        out << os.str();
    }
}

// --- sites mode --------------------------------------------------------------

int
runSitesMode(const Options &opts, const std::vector<FileIR> &irs)
{
    std::vector<StoreSite> sites;
    std::set<std::string> literals;
    for (const FileIR &ir : irs) {
        for (const std::string &s : ir.siteLiterals)
            literals.insert(s);
        for (const Function &fn : ir.functions) {
            collectStoreSites(fn, sites);
            for (const std::string &s : fn.siteLiterals)
                literals.insert(s);
        }
    }
    std::sort(sites.begin(), sites.end(),
              [](const StoreSite &a, const StoreSite &b) {
                  return std::tie(a.file, a.line, a.site)
                         < std::tie(b.file, b.line, b.site);
              });

    if (opts.diffMetrics.empty()) {
        std::cout << "{\n  \"sites\": [";
        for (std::size_t i = 0; i < sites.size(); ++i) {
            const StoreSite &s = sites[i];
            std::cout << (i != 0 ? "," : "") << "\n    {\"file\": \""
                      << jsonEscape(reportPath(s.file))
                      << "\", \"line\": " << s.line
                      << ", \"function\": \""
                      << jsonEscape(s.function) << "\", \"site\": \""
                      << jsonEscape(s.site) << "\", \"kind\": \""
                      << s.kind << "\"}";
        }
        std::cout << "\n  ],\n  \"siteTags\": [";
        std::size_t i = 0;
        for (const std::string &s : literals)
            std::cout << (i++ != 0 ? ", " : "") << "\""
                      << jsonEscape(s) << "\"";
        std::cout << "]\n}\n";
        return 0;
    }

    // --diff-metrics: every SiteScope tag the *runtime* observed must
    // exist statically; a runtime site we cannot find means the static
    // view (and therefore the analysis) missed a PM code path.
    std::string text;
    if (!readFile(opts.diffMetrics, text)) {
        std::cerr << "fasp-analyze: cannot read " << opts.diffMetrics
                  << "\n";
        return 2;
    }
    fasp::minijson::JsonParser parser(text);
    auto root = parser.parse();
    if (!root) {
        std::cerr << "fasp-analyze: " << opts.diffMetrics << ": "
                  << parser.error() << "\n";
        return 2;
    }
    const auto *pmSites = root->find("pm_sites");
    if (pmSites == nullptr) {
        std::cerr << "fasp-analyze: " << opts.diffMetrics
                  << ": no pm_sites key (run the bench with "
                     "--metrics)\n";
        return 2;
    }
    std::set<std::string> runtime;
    for (const auto &[engine, sitesObj] : pmSites->fields)
        for (const auto &[site, count] : sitesObj.fields)
            if (site != "(untagged)" && site != "(overflow)")
                runtime.insert(site);

    std::vector<std::string> missing;
    for (const std::string &site : runtime)
        if (literals.count(site) == 0)
            missing.push_back(site);
    std::vector<std::string> unobserved;
    for (const std::string &site : literals)
        if (runtime.count(site) == 0)
            unobserved.push_back(site);

    std::cout << "fasp-analyze --sites: " << sites.size()
              << " static PM-store sites, " << literals.size()
              << " SiteScope tags; runtime observed " << runtime.size()
              << " tags\n";
    for (const std::string &site : missing)
        std::cout << "error: runtime site \"" << site
                  << "\" has no static SiteScope tag (static view "
                     "missed a PM code path)\n";
    for (const std::string &site : unobserved)
        std::cout << "note: static site \"" << site
                  << "\" not exercised by this run\n";
    return missing.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return 2;

    std::string err;
    std::vector<std::string> files = collectFiles(opts.paths, err);
    if (!err.empty()) {
        std::cerr << "fasp-analyze: " << err << "\n";
        return 2;
    }

    // Parse every file and run the per-file textual rules and waiver
    // scan over the same text.
    std::vector<Finding> findings;
    std::vector<FileIR> irs;
    std::map<std::string, WaiverSet> waivers;
    for (const std::string &f : files) {
        std::string text;
        if (!readFile(f, text)) {
            findings.push_back({f, 1, "frontend-error",
                                "cannot read file", "",
                                Severity::Error});
            continue;
        }
        irs.push_back(parseSourceInternal(f, text));
        checkTextualRules(f, text, findings);
        waivers[f] = scanWaivers(text, f, findings);
    }

    if (opts.sites)
        return runSitesMode(opts, irs);

    // --- analysis ------------------------------------------------------
    std::size_t functions = 0;
    for (const FileIR &ir : irs) {
        AnalysisOptions aopts;
        std::string norm = reportPath(ir.file);
        aopts.pmInternal = norm.find("src/pm/") != std::string::npos
                           || norm.rfind("pm/", 0) == 0;
        for (const Function &fn : ir.functions) {
            ++functions;
            analyzeFunction(fn, aopts, findings);
        }
    }

    std::vector<Finding> kept;
    for (Finding &f : findings) {
        auto it = waivers.find(f.file);
        if (it != waivers.end()
            && it->second.suppresses(f.rule, f.line))
            continue;
        kept.push_back(std::move(f));
    }
    for (auto &[file, set] : waivers) {
        for (const WaiverSet::Waiver &w : set.waivers) {
            if (w.used)
                continue;
            kept.push_back(
                {file, w.line, "stale-waiver",
                 "waiver for '" + w.rule
                     + "' suppresses nothing; remove it (waivers "
                       "must not outlive the finding they justify)",
                 "", Severity::Error});
        }
    }

    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message)
                         < std::tie(b.file, b.line, b.rule,
                                    b.message);
              });

    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const Finding &f : kept)
        (f.severity == Severity::Error ? errors : warnings)++;

    printFindings(kept);
    std::cout << "fasp-analyze: " << irs.size() << " files, "
              << functions << " functions with PM ops, " << errors
              << " errors, " << warnings
              << " warnings (frontend: internal)\n";
    if (opts.emitJson)
        writeJsonReport(opts, irs.size(), functions, kept, errors,
                        warnings);

    if (errors > 0 || (opts.werror && warnings > 0))
        return 1;
    return 0;
}

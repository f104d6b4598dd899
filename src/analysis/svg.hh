/**
 * @file
 * Self-contained SVG roofline plots.
 *
 * Renders a RooflinePlot (the plotting core: model + labeled points)
 * as a single SVG document with no external dependencies — inline
 * styles, system font stack — so the file drops into a browser, an
 * <img> tag or the HTML report (report.hh) unchanged. Log-log axes
 * with decade gridlines, the outer roof, named ceilings, one labeled
 * marker per kernel point, and optionally phase trajectories drawn as
 * connected point paths (the per-interval (I, P) walk of a
 * phase-resolved run, analysis/phase.hh).
 */

#ifndef RFL_ANALYSIS_SVG_HH
#define RFL_ANALYSIS_SVG_HH

#include <string>
#include <vector>

#include "analysis/phase.hh"
#include "roofline/plot.hh"

namespace rfl::analysis
{

/** One phase trajectory to overlay as a connected point path. */
struct PhasePath
{
    std::string label;
    std::vector<PhasePoint> points;
};

/** SVG rendering knobs. */
struct SvgOptions
{
    int width = 860;
    int height = 560;
};

/** Render @p plot (plus @p phases) as a complete SVG document. */
std::string renderRooflineSvg(const roofline::RooflinePlot &plot,
                              const std::vector<PhasePath> &phases = {},
                              const SvgOptions &opts = {});

/** Write @p dir/@p name.svg; @return the path written. */
std::string writeRooflineSvg(const roofline::RooflinePlot &plot,
                             const std::string &dir,
                             const std::string &name,
                             const std::vector<PhasePath> &phases = {},
                             const SvgOptions &opts = {});

} // namespace rfl::analysis

#endif // RFL_ANALYSIS_SVG_HH
